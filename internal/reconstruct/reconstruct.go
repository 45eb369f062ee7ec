package reconstruct

import (
	"errors"
	"fmt"
	"math"

	"ppdm/internal/noise"
	"ppdm/internal/stats"
)

// Algorithm selects the iterative update rule.
type Algorithm int

const (
	// Bayes is the paper's update with the midpoint density approximation.
	Bayes Algorithm = iota
	// EM is the exact-interval maximum-likelihood update.
	EM
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Bayes:
		return "bayes"
	case EM:
		return "em"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Defaults for Config fields left zero.
const (
	DefaultMaxIters = 500
	DefaultEpsilon  = 1e-4
)

// Config parameterizes Reconstruct.
type Config struct {
	// Partition of the attribute's original domain.
	Partition Partition
	// Noise is the model the values were perturbed with.
	Noise noise.Model
	// Algorithm selects Bayes (default) or EM.
	Algorithm Algorithm
	// MaxIters bounds the iteration count (default DefaultMaxIters).
	MaxIters int
	// Epsilon is the total-variation stopping threshold between successive
	// estimates (default DefaultEpsilon).
	Epsilon float64
	// Prior, if non-nil, is the starting estimate (length Partition.K,
	// non-negative). Nil starts from the uniform distribution, as in the
	// paper. Warm-starting from a nearby estimate (e.g. the previous point
	// of a privacy-level series) cuts the iteration count without changing
	// what the procedure converges towards.
	Prior []float64
	// TailMass bounds the total per-row probability mass (both noise tails
	// combined) the banded kernel may discard when band-limiting the
	// transition matrix of an unbounded model (Gaussian/Laplace). Zero selects
	// DefaultTailMass; a negative value disables banding for every model
	// and stores dense rows. Whenever banding is enabled, bounded models
	// (Uniform) band at their exact support regardless of the tail value,
	// discarding zero mass, so their banded results are bit-identical to
	// dense rows.
	TailMass float64
	// Workers bounds the parallelism of the transition-weight precompute and
	// of the fused iteration passes on large grids; 0 means all cores,
	// negative values are rejected. The result is bit-identical for every
	// worker count.
	Workers int
	// Cache, if non-nil, overrides the shared transition-matrix cache —
	// Local-mode training passes a private per-training cache so its node
	// sub-partition geometries cannot evict the recurring root entries.
	Cache *WeightCache
	// DisableWeightCache bypasses the transition-matrix cache (shared or
	// Cache) entirely, for cost measurements that must not run warm against
	// matrices a previous run left behind. Cached or not, the computed
	// matrix is bitwise identical.
	DisableWeightCache bool
}

// Result reports the reconstructed distribution and convergence behaviour.
type Result struct {
	// P is the estimated probability of each partition interval.
	P []float64
	// Iters is the number of update iterations performed.
	Iters int
	// Converged reports whether the stopping threshold was reached within
	// MaxIters.
	Converged bool
	// Delta is the total-variation change of the final iteration.
	Delta float64
}

// Reconstruct estimates the distribution of the original values from their
// perturbed versions. It never sees the originals: only the perturbed
// values, the noise model, and the domain partition.
func Reconstruct(perturbed []float64, cfg Config) (Result, error) {
	if len(perturbed) == 0 {
		return Result{}, errors.New("reconstruct: no perturbed values")
	}
	for _, w := range perturbed {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return Result{}, fmt.Errorf("reconstruct: non-finite perturbed value %v", w)
		}
	}
	if _, err := NewPartition(cfg.Partition.Lo, cfg.Partition.Hi, cfg.Partition.K); err != nil {
		return Result{}, err
	}
	// Aggregate the perturbed observations into intervals on the partition's
	// grid, extended to cover the observed range (perturbed values escape
	// the original domain by up to the noise spread).
	return reconstructGrid(newObservationGrid(perturbed, cfg.Partition), cfg)
}

// reconstructGrid runs the iterative estimate on pre-aggregated observation
// counts; both Reconstruct and Collector.Reconstruct funnel here.
//
// Each iteration is two fused band-limited mat-vec passes over the flat
// weight slab: denomPass computes q = A·p (the per-observation-interval
// denominators), a serial index-ordered fold turns q into update
// coefficients, and updatePass computes next = p ⊙ Aᵀq. Iteration state
// lives in pooled scratch buffers, and on large grids both passes shard
// over fixed chunk grids on internal/parallel — the estimate is
// bit-identical at every worker count.
func reconstructGrid(obs *observationGrid, cfg Config) (Result, error) {
	if cfg.Noise == nil {
		return Result{}, errors.New("reconstruct: nil noise model")
	}
	if cfg.Algorithm != Bayes && cfg.Algorithm != EM {
		return Result{}, fmt.Errorf("reconstruct: unknown algorithm %d", int(cfg.Algorithm))
	}
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = DefaultMaxIters
	}
	if maxIters < 0 {
		return Result{}, fmt.Errorf("reconstruct: MaxIters %d must not be negative (0 selects the default %d)", maxIters, DefaultMaxIters)
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if eps < 0 || math.IsNaN(eps) {
		return Result{}, fmt.Errorf("reconstruct: Epsilon %v must not be negative (0 selects the default %v)", eps, DefaultEpsilon)
	}
	if cfg.Workers < 0 {
		return Result{}, fmt.Errorf("reconstruct: Workers %d must not be negative (0 means all cores)", cfg.Workers)
	}
	if math.IsNaN(cfg.TailMass) || cfg.TailMass >= 1 {
		return Result{}, fmt.Errorf("reconstruct: TailMass %v must be below 1 (0 selects the default, negative disables banding)", cfg.TailMass)
	}

	k := cfg.Partition.K
	m := len(obs.counts)

	// Banded interaction weights between observation intervals and domain
	// intervals, from the cache when an identical geometry was already
	// computed (Global/ByClass training recompute the same matrices many
	// times over; Local-mode node geometries repeat across subtrees).
	weights := transitionWeights(cfg, obs)

	sc := scratchPool.Get().(*iterScratch)
	defer scratchPool.Put(sc)
	sc.ensure(k, m)
	p, next, q := sc.p, sc.next, sc.q

	// Initialize the estimate.
	if cfg.Prior != nil {
		if len(cfg.Prior) != k {
			return Result{}, fmt.Errorf("reconstruct: prior has %d entries, partition has %d", len(cfg.Prior), k)
		}
		copy(p, cfg.Prior)
		for _, v := range p {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return Result{}, fmt.Errorf("reconstruct: invalid prior entry %v", v)
			}
		}
		stats.Normalize(p)
	} else {
		for t := range p {
			p[t] = 1 / float64(k)
		}
	}

	total := 0
	for _, c := range obs.counts {
		total += c
	}
	if total == 0 {
		return Result{}, errors.New("reconstruct: no observations")
	}
	n := float64(total)
	workers := iterWorkers(cfg, len(weights.data))
	res := Result{}
	for iter := 1; iter <= maxIters; iter++ {
		// Pass 1: per-row denominators q = A·p.
		denomPass(weights, obs.counts, p, q, workers)
		// Serial index-ordered fold: q[s] becomes the row's update
		// coefficient cnt/(n·denom). Rows whose denominator is not positive
		// cannot be explained by the current estimate (possible with bounded
		// noise and values far outside the domain); they retain the prior
		// mass instead, folded into one fallback coefficient.
		var fallback float64
		for s, cnt := range obs.counts {
			if cnt == 0 {
				continue
			}
			frac := float64(cnt) / n
			if q[s] > 0 {
				q[s] = frac / q[s]
			} else {
				q[s] = 0
				fallback += frac
			}
		}
		// Pass 2: next = p ⊙ Aᵀq (+ fallback·p).
		updatePass(weights, q, p, next, fallback, workers)
		stats.Normalize(next)
		delta, err := stats.TotalVariation(p, next)
		if err != nil {
			return Result{}, err
		}
		copy(p, next)
		res.Iters = iter
		res.Delta = delta
		if delta < eps {
			res.Converged = true
			break
		}
	}
	res.P = append([]float64(nil), p...)
	return res, nil
}

// observationGrid buckets perturbed values into intervals of the same width
// as the domain partition, aligned to its grid but extended on both sides to
// cover every observation.
type observationGrid struct {
	lo     float64 // lower edge of bucket 0
	width  float64
	counts []int
	// lowIdx is the offset of bucket 0 on the partition grid (may be
	// negative): lo == Partition.Lo + lowIdx·width. Together with the
	// partition, noise model, algorithm, and bucket count it fully determines
	// the transition-weight matrix, which is what makes the matrix cacheable.
	lowIdx int
}

func newObservationGrid(values []float64, part Partition) *observationGrid {
	w := part.Width()
	minV, maxV := values[0], values[0]
	for _, v := range values[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	// extend the partition grid to cover [minV, maxV]
	lowIdx := int(math.Floor((minV - part.Lo) / w))
	highIdx := int(math.Floor((maxV - part.Lo) / w))
	if highIdx < lowIdx {
		highIdx = lowIdx
	}
	g := &observationGrid{
		lo:     part.Lo + float64(lowIdx)*w,
		width:  w,
		counts: make([]int, highIdx-lowIdx+1),
		lowIdx: lowIdx,
	}
	for _, v := range values {
		i := int((v - g.lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= len(g.counts) {
			i = len(g.counts) - 1
		}
		g.counts[i]++
	}
	return g
}

func (g *observationGrid) midpoint(s int) float64 { return g.lo + (float64(s)+0.5)*g.width }
func (g *observationGrid) loEdge(s int) float64   { return g.lo + float64(s)*g.width }
func (g *observationGrid) hiEdge(s int) float64   { return g.lo + float64(s+1)*g.width }
