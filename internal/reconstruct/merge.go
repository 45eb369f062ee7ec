package reconstruct

import (
	"fmt"
	"math"

	"ppdm/internal/dataset"
)

// This file holds the shard-merge algebra of the collector statistics: a
// Collector (and the per-attribute StreamStats built from Collectors) is a
// pure sum of per-record contributions, so statistics accumulated over any
// partition of a record stream merge into exactly the statistics of the
// whole stream. internal/cluster relies on this to train shards
// independently and reconstruct once on the merged counts, bit-identical to
// single-node training. The *State types are the gzipped-JSON wire form the
// subprocess shard protocol exchanges — only aggregated interval counts
// ever leave a shard, never raw perturbed values.

// CollectorState is the serializable form of a Collector: the domain
// partition plus the sparse grid counts. JSON-encoding a map[int]int writes
// the grid indices as string keys, which round-trips exactly.
type CollectorState struct {
	Lo     float64     `json:"lo"`
	Hi     float64     `json:"hi"`
	K      int         `json:"k"`
	Counts map[int]int `json:"counts,omitempty"`
	N      int         `json:"n"`
	MinIdx int         `json:"min_idx,omitempty"`
	MaxIdx int         `json:"max_idx,omitempty"`
}

// State captures the collector's current statistics for serialization. The
// returned counts map is a copy; mutating it does not affect the collector.
func (c *Collector) State() CollectorState {
	counts := make(map[int]int, len(c.counts))
	for idx, cnt := range c.counts {
		counts[idx] = cnt
	}
	return CollectorState{
		Lo:     c.part.Lo,
		Hi:     c.part.Hi,
		K:      c.part.K,
		Counts: counts,
		N:      c.n,
		MinIdx: c.minIdx,
		MaxIdx: c.maxIdx,
	}
}

// NewCollectorFromState reconstitutes a collector from its wire state,
// validating that the counts are internally consistent: positive counts
// summing to N, and, when there are any, MinIdx and MaxIdx equal to the
// lowest and highest occupied index (as Add and Merge keep them).
func NewCollectorFromState(st CollectorState) (*Collector, error) {
	c, err := NewCollector(Partition{Lo: st.Lo, Hi: st.Hi, K: st.K})
	if err != nil {
		return nil, err
	}
	total := 0
	lo, hi := st.MaxIdx, st.MinIdx
	for idx, cnt := range st.Counts {
		if cnt <= 0 || cnt > math.MaxInt-total {
			return nil, fmt.Errorf("reconstruct: collector state has count %d at index %d", cnt, idx)
		}
		if idx < st.MinIdx || idx > st.MaxIdx {
			return nil, fmt.Errorf("reconstruct: collector state index %d outside [%d, %d]", idx, st.MinIdx, st.MaxIdx)
		}
		lo, hi = min(lo, idx), max(hi, idx)
		c.counts[idx] = cnt
		total += cnt
	}
	if total != st.N {
		return nil, fmt.Errorf("reconstruct: collector state n=%d but counts sum to %d", st.N, total)
	}
	if total > 0 && (lo != st.MinIdx || hi != st.MaxIdx) {
		return nil, fmt.Errorf("reconstruct: collector state range [%d, %d] but counts occupy [%d, %d]", st.MinIdx, st.MaxIdx, lo, hi)
	}
	c.n = st.N
	c.minIdx = st.MinIdx
	c.maxIdx = st.MaxIdx
	return c, nil
}

// Merge folds another collector's statistics into c. Both collectors must
// share the same domain partition. Merging the collectors of a partitioned
// stream yields exactly the collector of the whole stream, so Reconstruct
// on the merged counts is bit-identical to single-pass collection.
func (c *Collector) Merge(o *Collector) error {
	if c.part != o.part {
		return fmt.Errorf("reconstruct: merging collectors over different partitions (%+v vs %+v)", c.part, o.part)
	}
	if o.n == 0 {
		return nil
	}
	if c.n == 0 {
		c.minIdx, c.maxIdx = o.minIdx, o.maxIdx
	} else {
		if o.minIdx < c.minIdx {
			c.minIdx = o.minIdx
		}
		if o.maxIdx > c.maxIdx {
			c.maxIdx = o.maxIdx
		}
	}
	for idx, cnt := range o.counts {
		c.counts[idx] += cnt
	}
	c.n += o.n
	return nil
}

// StreamStatsState is the serializable form of StreamStats: every
// per-attribute and per-(attribute, class) collector plus the class counts.
type StreamStatsState struct {
	All         map[int]CollectorState   `json:"all"`
	ByClass     map[int][]CollectorState `json:"by_class"`
	ClassCounts []int                    `json:"class_counts"`
	N           int                      `json:"n"`
}

// State captures the statistics for serialization.
func (st *StreamStats) State() StreamStatsState {
	out := StreamStatsState{
		All:         make(map[int]CollectorState, len(st.all)),
		ByClass:     make(map[int][]CollectorState, len(st.byClass)),
		ClassCounts: append([]int(nil), st.classCounts...),
		N:           st.n,
	}
	for j, c := range st.all {
		out.All[j] = c.State()
	}
	for j, perClass := range st.byClass {
		states := make([]CollectorState, len(perClass))
		for cl, c := range perClass {
			states[cl] = c.State()
		}
		out.ByClass[j] = states
	}
	return out
}

// NewStreamStatsFromState reconstitutes stream statistics from their wire
// state against the given schema.
func NewStreamStatsFromState(s *dataset.Schema, state StreamStatsState) (*StreamStats, error) {
	if len(state.ClassCounts) != s.NumClasses() {
		return nil, fmt.Errorf("reconstruct: state has %d class counts, schema has %d classes", len(state.ClassCounts), s.NumClasses())
	}
	parts := make(map[int]Partition, len(state.All))
	for j, cs := range state.All {
		parts[j] = Partition{Lo: cs.Lo, Hi: cs.Hi, K: cs.K}
	}
	st, err := NewStreamStats(s, parts)
	if err != nil {
		return nil, err
	}
	for j, cs := range state.All {
		c, err := NewCollectorFromState(cs)
		if err != nil {
			return nil, fmt.Errorf("reconstruct: attribute %d: %w", j, err)
		}
		st.all[j] = c
		perClass, ok := state.ByClass[j]
		if !ok || len(perClass) != s.NumClasses() {
			return nil, fmt.Errorf("reconstruct: attribute %d: state has %d per-class collectors, schema has %d classes", j, len(perClass), s.NumClasses())
		}
		for cl, ccs := range perClass {
			if (Partition{Lo: ccs.Lo, Hi: ccs.Hi, K: ccs.K}) != parts[j] {
				return nil, fmt.Errorf("reconstruct: attribute %d class %d: partition differs from the attribute partition", j, cl)
			}
			cc, err := NewCollectorFromState(ccs)
			if err != nil {
				return nil, fmt.Errorf("reconstruct: attribute %d class %d: %w", j, cl, err)
			}
			st.byClass[j][cl] = cc
		}
	}
	if len(state.ByClass) != len(state.All) {
		return nil, fmt.Errorf("reconstruct: state has %d by-class attributes, %d all-class attributes", len(state.ByClass), len(state.All))
	}
	copy(st.classCounts, state.ClassCounts)
	st.n = state.N
	return st, nil
}

// Merge folds another statistics object into st. Both must cover the same
// schema shape and the same attribute partitions. Statistics collected over
// the shards of a partitioned stream merge into exactly the statistics of
// the whole stream.
func (st *StreamStats) Merge(o *StreamStats) error {
	if len(st.classCounts) != len(o.classCounts) {
		return fmt.Errorf("reconstruct: merging stats with %d vs %d classes", len(st.classCounts), len(o.classCounts))
	}
	if len(st.all) != len(o.all) {
		return fmt.Errorf("reconstruct: merging stats over %d vs %d attributes", len(st.all), len(o.all))
	}
	for j := range st.all {
		oc, ok := o.all[j]
		if !ok {
			return fmt.Errorf("reconstruct: merging stats: attribute %d missing from other", j)
		}
		if err := st.all[j].Merge(oc); err != nil {
			return fmt.Errorf("reconstruct: attribute %d: %w", j, err)
		}
		for cl := range st.byClass[j] {
			if err := st.byClass[j][cl].Merge(o.byClass[j][cl]); err != nil {
				return fmt.Errorf("reconstruct: attribute %d class %d: %w", j, cl, err)
			}
		}
	}
	for cl, cnt := range o.classCounts {
		st.classCounts[cl] += cnt
	}
	st.n += o.n
	return nil
}
