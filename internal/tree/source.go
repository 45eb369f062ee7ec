package tree

import (
	"fmt"
)

// Span is an inclusive range of interval indices. During growth the tree
// tracks, for every attribute, the span of intervals still feasible on the
// current path (ancestor splits shrink it): the split search only considers
// cuts inside it, and a DistribSource must place no mass outside it,
// otherwise a node's fresh distribution can contradict the very split that
// created the node.
type Span struct{ Lo, Hi int }

// Contains reports whether bin b lies in the span.
func (s Span) Contains(b int) bool { return b >= s.Lo && b <= s.Hi }

// Count returns the number of intervals in the span.
func (s Span) Count() int { return s.Hi - s.Lo + 1 }

// Source supplies training data to Grow in the columnar layout: one
// attribute list of interval indices in [0, Bins(attr)) per attribute, plus
// the class list. Per-node class histograms accumulate directly from the
// lists' segments, and node partitioning joins rowIDs against a bitmap of
// the winning attribute.
//
// Values must be exact: the grower does not clamp them into the feasible
// span, relying on the invariant that rows reach a node only through
// ancestor cuts on these very values (true for any static assignment).
//
// The parallel split search reads different attributes concurrently (and
// calls NodeDistributions concurrently, for DistribSource), so
// implementations must be safe for concurrent calls with distinct attr
// arguments.
type Source interface {
	// Len returns the number of records.
	Len() int
	// NumAttrs returns the number of attributes.
	NumAttrs() int
	// Bins returns the number of intervals of the given attribute.
	Bins(attr int) int
	// NumClasses returns the number of class labels.
	NumClasses() int
	// AttrList returns attribute attr's columnar list.
	AttrList(attr int) AttrList
	// Labels returns the class list, indexed by global rowID. The slice
	// aliases the source's storage; callers must not modify it.
	Labels() []int
}

// DistribSource is an optional refinement of Source. When implemented, the
// split search asks it for per-class interval distributions of the node's
// records, replacing the histogram of stored values in the gini evaluation.
// This is how the paper's Local mode plugs in: the distribution at each node
// is freshly reconstructed from the node's perturbed values, while record
// routing still uses the source's stable attribute lists.
type DistribSource interface {
	Source
	// NodeDistributions returns expected per-class counts over the
	// intervals of attr for the given rows: dist[class][bin]. Bins outside
	// span must carry zero mass. ok = false falls back to counting the
	// attribute list. Callers must not retain the returned slices across calls.
	NodeDistributions(attr int, rows []int, span Span) (dist [][]float64, ok bool)
}

// StaticSource is a Source backed by precomputed interval assignments
// held in memory-resident attribute lists (one packed column per attribute).
type StaticSource struct {
	lists  []*MemAttrList
	bins   []int
	labels []int
	k      int // number of classes
}

// NewStaticSource validates and wraps precomputed interval assignments.
// cols[attr][row] must be in [0, bins[attr]); labels[row] in [0, numClasses).
func NewStaticSource(cols [][]int, bins []int, labels []int, numClasses int) (*StaticSource, error) {
	if len(cols) == 0 {
		return nil, errNoColumns
	}
	if len(cols) != len(bins) {
		return nil, fmt.Errorf("tree: %d columns but %d bin counts", len(cols), len(bins))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: need >= 2 classes, got %d", numClasses)
	}
	n := len(labels)
	lists := make([]*MemAttrList, len(cols))
	for a, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("tree: column %d has %d rows, labels have %d", a, len(col), n)
		}
		list, err := NewMemAttrList(col, bins[a])
		if err != nil {
			return nil, fmt.Errorf("tree: attribute %d: %w", a, err)
		}
		lists[a] = list
	}
	for i, l := range labels {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("tree: label %d of row %d outside [0,%d)", l, i, numClasses)
		}
	}
	return &StaticSource{lists: lists, bins: bins, labels: labels, k: numClasses}, nil
}

// Len implements Source.
func (s *StaticSource) Len() int { return len(s.labels) }

// NumAttrs implements Source.
func (s *StaticSource) NumAttrs() int { return len(s.lists) }

// Bins implements Source.
func (s *StaticSource) Bins(attr int) int { return s.bins[attr] }

// NumClasses implements Source.
func (s *StaticSource) NumClasses() int { return s.k }

// AttrList implements Source.
func (s *StaticSource) AttrList(attr int) AttrList { return s.lists[attr] }

// Labels implements Source.
func (s *StaticSource) Labels() []int { return s.labels }
