package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ppdm"
	"ppdm/internal/core"
	"ppdm/internal/reconstruct"
)

// Input sizes of the training workloads.
const (
	treeRecords = 100_000
	nbRecords   = 200_000
	testRecords = 20_000
)

// trainBench is the file-fed training path of ppdm-train -stream: a
// gzipped CSV file of F2 records perturbed with Gaussian noise at 100%
// privacy is opened, streamed into ByClass training and the model saved.
type trainBench struct {
	learner  string // "tree" or "nb"
	n        int
	seed     uint64
	models   map[int]ppdm.NoiseModel
	train    string // gzipped perturbed training records
	test     string // gzipped clean held-out records
	model    string // where each operation saves its model
	spillDir string // the tree's out-of-core spill, owned by the benchmark
	want     [sha256.Size]byte
}

func prepareTrainTree(dir string, seed uint64) (bench, error) {
	return prepareTrain(dir, seed, "tree", treeRecords)
}

func prepareTrainNB(dir string, seed uint64) (bench, error) {
	return prepareTrain(dir, seed, "nb", nbRecords)
}

// prepareTrain writes the training and test files.
func prepareTrain(dir string, seed uint64, learner string, n int) (bench, error) {
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		return nil, err
	}
	b := &trainBench{
		learner:  learner,
		n:        n,
		seed:     seed,
		models:   models,
		train:    filepath.Join(dir, "train.csv.gz"),
		test:     filepath.Join(dir, "test.csv.gz"),
		model:    filepath.Join(dir, "model.json"),
		spillDir: filepath.Join(dir, "spill"),
	}
	if err := os.MkdirAll(b.spillDir, 0o755); err != nil {
		return nil, err
	}
	src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: seed}, 0)
	if err != nil {
		return nil, err
	}
	perturbed, err := ppdm.PerturbStream(src, models, seed+1, 0)
	if err != nil {
		return nil, err
	}
	if err := writeRecords(b.train, perturbed); err != nil {
		return nil, err
	}
	test, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: testRecords, Seed: seed + 2}, 0)
	if err != nil {
		return nil, err
	}
	return b, writeRecords(b.test, test)
}

// writeRecords writes a record stream as a gzipped CSV file.
func writeRecords(path string, src ppdm.RecordSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := ppdm.NewStreamWriter(f, ppdm.BenchmarkSchema())
	if err != nil {
		f.Close()
		return err
	}
	if _, err := ppdm.CopyStream(w, src); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expect trains the reference model in memory from the same seeds. The
// determinism contract makes the streamed model byte-identical to it.
func (b *trainBench) expect() error {
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: b.n, Seed: b.seed})
	if err != nil {
		return err
	}
	perturbed, err := ppdm.PerturbTable(tb, b.models, b.seed+1)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	switch b.learner {
	case "tree":
		clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: b.models})
		if err != nil {
			return err
		}
		err = clf.Save(&buf)
	default:
		nb, err := ppdm.TrainNaiveBayes(perturbed, ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: b.models})
		if err != nil {
			return err
		}
		err = nb.Save(&buf)
	}
	if err != nil {
		return err
	}
	b.want = sha256.Sum256(buf.Bytes())
	return nil
}

func (b *trainBench) close() {}

// measure runs training operations. Each one starts from an empty shared
// weight cache, as a fresh ppdm-train process would, and the model it saves
// must be byte-identical to the reference.
func (b *trainBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	layer := "core"
	if b.learner == "nb" {
		layer = "bayes"
	}
	var hitFracs, compressedMB, modelKB []float64
	op := func(tr *tracer, root int) error {
		reconstruct.ResetSharedWeightCache()
		f, err := os.Open(b.train)
		if err != nil {
			return err
		}
		defer f.Close()
		cr := &countingReader{r: f}
		id := tr.begin("stream.NewReader", root)
		r, err := ppdm.NewStreamReader(cr, ppdm.BenchmarkSchema(), 0)
		tr.end(id)
		if err != nil {
			return err
		}
		defer r.Close()

		id = tr.begin(layer+".TrainStream", root)
		var src ppdm.RecordSource = r
		if tr != nil {
			src = tracedSource{RecordSource: r, tr: tr, parent: id}
		}
		save, err := b.trainStream(src)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(layer+".Save", root)
		err = core.WriteFileAtomic(b.model, save)
		tr.end(id)
		if err != nil {
			return err
		}
		if tr != nil {
			st := reconstruct.SharedWeightCacheStats()
			hitFracs = append(hitFracs, ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
			compressedMB = append(compressedMB, float64(cr.n)/1e6)
		}
		return nil
	}
	check := func() error {
		data, err := os.ReadFile(b.model)
		if err != nil {
			return err
		}
		modelKB = append(modelKB, float64(len(data))/1024)
		if sha256.Sum256(data) != b.want {
			return fmt.Errorf("saved %s model differs from the in-memory reference", b.learner)
		}
		return nil
	}
	out := opLoop(d, tr, b.spillDir, op, check).outcome(float64(b.n))

	acc, err := b.accuracy()
	if err != nil {
		return nil, err
	}
	out.quality = acc
	out.named = []named{
		{"train_records_per_s", ratio(out.items, out.busy.Seconds()), "rec/s", len(out.wallMS)},
		{"train_op_s", median(out.wallMS) / 1e3, "s", len(out.wallMS)},
		{"accuracy", acc, "frac", testRecords},
		{"peak_heap_mb", median(out.heapMB), "MiB", len(out.heapMB)},
	}
	if tr != nil {
		total, self := perOp(tr.snapshot(), out.tracedOps)
		out.layers["stream.decode_s"] = total["stream.Next"]
		out.layers["stream.decode_mb_per_s"] = ratio(median(compressedMB), total["stream.Next"])
		out.layers["reconstruct.cache_hit_frac"] = median(hitFracs)
		out.layers["trace.unaccounted_frac"] = ratio(self["op"], total["op"])
		if b.learner == "tree" {
			out.layers["core.train_s"] = self["core.TrainStream"]
			out.layers["core.save_s"] = total["core.Save"]
			out.layers["core.model_kb"] = median(modelKB)
		} else {
			out.layers["bayes.train_s"] = self["bayes.TrainStream"] + total["bayes.Save"]
		}
	}
	return out, nil
}

// trainStream trains the workload's learner on src and returns the model's
// save function.
func (b *trainBench) trainStream(src ppdm.RecordSource) (func(io.Writer) error, error) {
	if b.learner == "tree" {
		clf, err := ppdm.TrainStream(src, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: b.models, SpillDir: b.spillDir})
		if err != nil {
			return nil, err
		}
		return clf.Save, nil
	}
	nb, err := ppdm.TrainNaiveBayesStream(src, ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: b.models})
	if err != nil {
		return nil, err
	}
	return nb.Save, nil
}

// accuracy loads the saved model, as ppdm-serve would, and evaluates it on
// the held-out test file.
func (b *trainBench) accuracy() (float64, error) {
	data, err := os.ReadFile(b.model)
	if err != nil {
		return 0, err
	}
	var clf interface {
		EvaluateStream(ppdm.RecordSource) (ppdm.Evaluation, error)
	}
	if b.learner == "tree" {
		clf, err = ppdm.LoadClassifier(bytes.NewReader(data))
	} else {
		clf, err = ppdm.LoadNaiveBayes(bytes.NewReader(data))
	}
	if err != nil {
		return 0, err
	}
	f, err := os.Open(b.test)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := ppdm.NewStreamReader(f, ppdm.BenchmarkSchema(), 0)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	ev, err := clf.EvaluateStream(r)
	if err != nil {
		return 0, err
	}
	return ev.Accuracy, nil
}
