package tree

import (
	"testing"
)

// fakeDistribSource wraps a StaticSource and serves per-node distributions
// that contradict the stored values, letting tests verify that the split
// search consumes DistribSource estimates when offered.
type fakeDistribSource struct {
	*StaticSource
	dist  [][]float64 // dist[class][bin], or nil to decline
	calls int
}

func (f *fakeDistribSource) NodeDistributions(attr int, rows []int, span Span) ([][]float64, bool) {
	f.calls++
	if f.dist == nil {
		return nil, false
	}
	return f.dist, true
}

func TestDistribSourceDrivesSplitSelection(t *testing.T) {
	// Stored values: attribute uninformative (all records bin 0 or 1 at
	// random vs label). Distribution estimate: class 0 entirely in bins
	// 0-1, class 1 entirely in bins 2-3 -> the gini scan should pick cut 1.
	n := 200
	col := make([]int, n)
	labels := make([]int, n)
	for i := range col {
		col[i] = i % 4
		labels[i] = (i / 2) % 2 // unrelated to col
	}
	static := makeSource(t, [][]int{col}, 4, labels, 2)
	fake := &fakeDistribSource{
		StaticSource: static,
		dist: [][]float64{
			{50, 50, 0, 0}, // class 0
			{0, 0, 50, 50}, // class 1
		},
	}
	spans := []Span{{Lo: 0, Hi: 3}}
	counts := sourceClassCounts(fake, rowsUpTo(n))
	best, err := findBestSplit(fake, rowsUpTo(n), spans, counts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fake.calls == 0 {
		t.Fatal("DistribSource was never consulted")
	}
	if best.attr != 0 || best.cut != 1 {
		t.Fatalf("split = attr%d cut %d, want attr0 cut 1 (driven by distributions)", best.attr, best.cut)
	}
	if best.gain <= 0.4 {
		t.Fatalf("gain %v too small for a perfect distribution split", best.gain)
	}
}

func TestDistribSourceDeclineFallsBackToValues(t *testing.T) {
	// Values perfectly separable; the declining DistribSource must not
	// prevent the value-based scan from finding the split.
	n := 100
	col := make([]int, n)
	labels := make([]int, n)
	for i := range col {
		col[i] = i % 4
		if col[i] >= 2 {
			labels[i] = 1
		}
	}
	static := makeSource(t, [][]int{col}, 4, labels, 2)
	fake := &fakeDistribSource{StaticSource: static, dist: nil}
	spans := []Span{{Lo: 0, Hi: 3}}
	counts := sourceClassCounts(fake, rowsUpTo(n))
	best, err := findBestSplit(fake, rowsUpTo(n), spans, counts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fake.calls == 0 {
		t.Fatal("DistribSource was never consulted")
	}
	if best.attr != 0 || best.cut != 1 {
		t.Fatalf("split = attr%d cut %d, want attr0 cut 1 (stored-value fallback)", best.attr, best.cut)
	}
}

func TestSpanNarrowsDuringGrowth(t *testing.T) {
	// Grow a tree on separable two-level data and verify that every split's
	// cut lies inside the feasible span implied by its ancestors.
	n := 800
	col0 := make([]int, n)
	col1 := make([]int, n)
	labels := make([]int, n)
	for i := range col0 {
		col0[i] = i % 8
		col1[i] = (i / 8) % 8
		if col0[i] >= 4 && col1[i] >= 4 {
			labels[i] = 1
		}
	}
	src := makeSource(t, [][]int{col0, col1}, 8, labels, 2)
	tr, err := Grow(src, Config{MinLeaf: 1, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node, spans []Span)
	walk = func(nd *Node, spans []Span) {
		if nd.IsLeaf() {
			return
		}
		s := spans[nd.Attr]
		if nd.Cut < s.Lo || nd.Cut >= s.Hi {
			t.Fatalf("cut %d of attr %d outside feasible span [%d,%d]", nd.Cut, nd.Attr, s.Lo, s.Hi)
		}
		left := append([]Span(nil), spans...)
		right := append([]Span(nil), spans...)
		left[nd.Attr].Hi = nd.Cut
		right[nd.Attr].Lo = nd.Cut + 1
		walk(nd.Left, left)
		walk(nd.Right, right)
	}
	walk(tr.Root, []Span{{0, 7}, {0, 7}})
}

func TestSpanHelpers(t *testing.T) {
	s := Span{Lo: 2, Hi: 5}
	if !s.Contains(2) || !s.Contains(5) || s.Contains(1) || s.Contains(6) {
		t.Error("Contains wrong")
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
}

func rowsUpTo(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// sourceClassCounts tallies labels through the Source interface, standing in
// for the grower's internal counting in white-box tests.
func sourceClassCounts(src Source, rows []int) []int {
	counts := make([]int, src.NumClasses())
	labels := src.Labels()
	for _, r := range rows {
		counts[labels[r]]++
	}
	return counts
}
