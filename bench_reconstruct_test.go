package ppdm_test

// Dense-vs-banded pairs for the flat-layout reconstruction kernel
// (internal/reconstruct). Every pair runs the identical workload with
// banding enabled (TailMass 0 = default, or an explicit tail budget) and
// disabled (TailMass -1: full dense rows); for uniform noise the two
// estimates are bit-identical, for gaussian/laplace they agree within the
// configured tail-mass tolerance, so the deltas are pure kernel cost. The
// cache is bypassed so every iteration pays the real matrix build. The
// Local pair measures the end-to-end training effect of the per-training
// node-geometry weight cache plus banding. Results land in
// BENCH_reconstruct.json.

import (
	"testing"

	"ppdm"
)

// benchReconValues perturbs 100k uniform samples on [0, 100] with m.
func benchReconValues(b *testing.B, m ppdm.NoiseModel) []float64 {
	b.Helper()
	r := ppdm.NewRand(1)
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = r.Uniform(0, 100) + m.Sample(r)
	}
	return vals
}

// benchReconKernel runs the reconstruction at the package-default epsilon so
// the iteration kernel, not the O(n) observation histogram, dominates.
func benchReconKernel(b *testing.B, m ppdm.NoiseModel, k int, tail float64) {
	b.Helper()
	vals := benchReconValues(b, m)
	part, err := ppdm.NewPartition(0, 100, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Reconstruct(vals, ppdm.ReconstructConfig{
			Partition: part, Noise: m, TailMass: tail, DisableWeightCache: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func uniformAt(b *testing.B, level float64) ppdm.NoiseModel {
	b.Helper()
	m, err := ppdm.UniformForPrivacy(level, 100, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- bounded noise (uniform): banding is exact, results bit-identical ---

func BenchmarkReconUniform25K200Dense(b *testing.B)  { benchReconKernel(b, uniformAt(b, 0.25), 200, -1) }
func BenchmarkReconUniform25K200Banded(b *testing.B) { benchReconKernel(b, uniformAt(b, 0.25), 200, 0) }
func BenchmarkReconUniform50K200Dense(b *testing.B)  { benchReconKernel(b, uniformAt(b, 0.5), 200, -1) }
func BenchmarkReconUniform50K200Banded(b *testing.B) { benchReconKernel(b, uniformAt(b, 0.5), 200, 0) }
func BenchmarkReconUniform25K50Dense(b *testing.B)   { benchReconKernel(b, uniformAt(b, 0.25), 50, -1) }
func BenchmarkReconUniform25K50Banded(b *testing.B)  { benchReconKernel(b, uniformAt(b, 0.25), 50, 0) }

// --- unbounded noise: banding discards at most the configured tail mass ---

func gaussianSigma(b *testing.B, sigma float64) ppdm.NoiseModel {
	b.Helper()
	m, err := ppdm.NewGaussian(sigma)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func laplaceB(b *testing.B, scale float64) ppdm.NoiseModel {
	b.Helper()
	m, err := ppdm.NewLaplace(scale)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkReconGaussS3K200Dense(b *testing.B) { benchReconKernel(b, gaussianSigma(b, 3), 200, -1) }
func BenchmarkReconGaussS3K200Banded(b *testing.B) {
	benchReconKernel(b, gaussianSigma(b, 3), 200, 1e-6)
}
func BenchmarkReconLaplaceB2K200Dense(b *testing.B) { benchReconKernel(b, laplaceB(b, 2), 200, -1) }
func BenchmarkReconLaplaceB2K200Banded(b *testing.B) {
	benchReconKernel(b, laplaceB(b, 2), 200, 1e-6)
}

// --- Local-mode end-to-end: per-training node cache + banded kernel ---

func benchTrainLocalRecon(b *testing.B, family string, level float64, disableCache bool, tail float64) {
	b.Helper()
	tb := benchData(b, 10000)
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), family, level, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ppdm.TrainConfig{
		Mode: ppdm.Local, Noise: models,
		DisableWeightCache: disableCache, ReconTailMass: tail,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Train(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainLocalUniform100Banded(b *testing.B) {
	benchTrainLocalRecon(b, "uniform", 1.0, false, 0)
}
func BenchmarkTrainLocalUniform100Dense(b *testing.B) {
	benchTrainLocalRecon(b, "uniform", 1.0, true, -1)
}
func BenchmarkTrainLocalUniform50Banded(b *testing.B) {
	benchTrainLocalRecon(b, "uniform", 0.5, false, 0)
}
func BenchmarkTrainLocalUniform50Dense(b *testing.B) {
	benchTrainLocalRecon(b, "uniform", 0.5, true, -1)
}
func BenchmarkTrainLocalGauss100Banded(b *testing.B) {
	benchTrainLocalRecon(b, "gaussian", 1.0, false, 0)
}
func BenchmarkTrainLocalGauss100Dense(b *testing.B) {
	benchTrainLocalRecon(b, "gaussian", 1.0, true, -1)
}
