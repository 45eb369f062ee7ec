package ppdm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ppdm"
)

// TestModelDigestGolden pins the SHA-256 of the saved bytes of a model
// trained in every tree mode and every naive-Bayes mode on one fixed
// dataset. The worker-count determinism tests only compare a build with
// itself; this golden catches any change to what a mode produces —
// including Local mode, whose per-node reconstructions nothing else pins.
//
// The digests are recorded on linux/amd64. Other architectures may fuse
// multiply-adds (Go permits FMA contraction there), which changes float
// results in the last bit, so the test runs on amd64 only.
func TestModelDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; Go may fuse multiply-adds on %s, changing float bits", runtime.GOARCH)
	}
	clean := detData(t, 8000, 7, 4)
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(clean, models, 11)
	if err != nil {
		t.Fatal(err)
	}
	input := func(mode ppdm.Mode) *ppdm.Table {
		if mode == ppdm.Original {
			return clean
		}
		return perturbed
	}
	digest := func(save func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}

	treeWant := map[ppdm.Mode]string{
		ppdm.Original:   "7caad069195d1ed3823b3ed2257dea2bc60b9a25766a0588a3e2b9f088293283",
		ppdm.Randomized: "48386d6a213a191514febbdaec85c93367ee0fb8bc9b66ba10a67db2ea3528f0",
		ppdm.Global:     "2f846d7b327b710bb9fc77acc08b5d4420269d1712ce8effc9525a5cb5dc6160",
		ppdm.ByClass:    "fcc32d00a98d4dd5b1d329c7e0eec4ca5242724f94a7c76e82de4d0d11ace040",
		ppdm.Local:      "f24d854403478fa1eef7f0c55c80c26de7ca29abc5e93bce953423b996f23c89",
	}
	for _, mode := range []ppdm.Mode{ppdm.Original, ppdm.Randomized, ppdm.Global, ppdm.ByClass, ppdm.Local} {
		cfg := ppdm.TrainConfig{Mode: mode, LocalMinRecords: 500}
		if mode.NeedsNoise() {
			cfg.Noise = models
		}
		clf, err := ppdm.Train(input(mode), cfg)
		if err != nil {
			t.Fatalf("tree %v: %v", mode, err)
		}
		got := digest(func(b *bytes.Buffer) error { return clf.Save(b) })
		if got != treeWant[mode] {
			t.Errorf("tree %v: model digest %s, want %s", mode, got, treeWant[mode])
		}
	}

	nbWant := map[ppdm.Mode]string{
		ppdm.Original:   "e5ca1aaccab46ca88ee4f05f92a9fcb2ca97b25d72cdd9add0c1dce0cbd89148",
		ppdm.Randomized: "38b01b6741c2b529b5aa34ad2986805ada2769ff599bd7a2f24007c5d39b4a00",
		ppdm.ByClass:    "086b923ae87bfdb837117cd5e9f50965210de3eff72f719860b842a18f29a8eb",
	}
	for _, mode := range []ppdm.Mode{ppdm.Original, ppdm.Randomized, ppdm.ByClass} {
		cfg := ppdm.NaiveBayesConfig{Mode: mode}
		if mode.NeedsNoise() {
			cfg.Noise = models
		}
		nb, err := ppdm.TrainNaiveBayes(input(mode), cfg)
		if err != nil {
			t.Fatalf("nb %v: %v", mode, err)
		}
		got := digest(func(b *bytes.Buffer) error { return nb.Save(b) })
		if got != nbWant[mode] {
			t.Errorf("nb %v: model digest %s, want %s", mode, got, nbWant[mode])
		}
	}
}
