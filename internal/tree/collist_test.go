package tree

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppdm/internal/prng"
	"ppdm/internal/stream"
)

// randomCols draws a noisy multi-attribute dataset big enough to split
// repeatedly and to cross several SegLen segments.
func randomCols(seed uint64, n, attrs, bins, classes int) (cols [][]int, labels []int) {
	r := prng.New(seed)
	cols = make([][]int, attrs)
	for a := range cols {
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(bins)
		}
		cols[a] = col
	}
	labels = make([]int, n)
	for i := range labels {
		// correlate the label with attribute 0 plus noise so real splits
		// exist at many depths
		l := 0
		if cols[0][i] >= bins/2 {
			l = 1
		}
		if r.Bernoulli(0.25) {
			l = r.Intn(classes)
		}
		labels[i] = l
	}
	return cols, labels
}

func treesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.String() != b.String() {
		t.Fatal("tree structures differ")
	}
	if !reflect.DeepEqual(a.Importance, b.Importance) {
		t.Fatalf("Importance differs: %v vs %v", a.Importance, b.Importance)
	}
}

// oracleGrow is the reference learner the columnar engine must reproduce:
// a serial recursion that counts class histograms straight from the raw
// columns and partitions rows in row order, sharing only the gini formulas
// and the pruning pass with Grow.
func oracleGrow(cols [][]int, bins, labels []int, classes int, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{NumAttrs: len(cols), NumClasses: classes, Importance: make([]float64, len(cols))}
	rows := make([]int, len(labels))
	for i := range rows {
		rows[i] = i
	}
	spans := make([]Span, len(cols))
	for a := range spans {
		spans[a] = Span{Lo: 0, Hi: bins[a] - 1}
	}
	var grow func(rows []int, spans []Span, depth int) *Node
	grow = func(rows []int, spans []Span, depth int) *Node {
		node := &Node{Counts: make([]int, classes)}
		for _, r := range rows {
			node.Counts[labels[r]]++
		}
		node.Class = argmax(node.Counts)
		if depth >= cfg.MaxDepth || len(rows) < 2*cfg.MinLeaf || isPure(node.Counts) {
			return node
		}
		parent := make([]float64, classes)
		for c, v := range node.Counts {
			parent[c] = float64(v)
		}
		parentGini := giniOf(parent, float64(len(rows)))
		best := split{attr: -1}
		for a, col := range cols {
			span := spans[a]
			if span.Count() < 2 {
				continue
			}
			totals := make([]float64, classes)
			counts := make([][]float64, bins[a])
			for b := range counts {
				counts[b] = make([]float64, classes)
			}
			var n float64
			for _, r := range rows {
				counts[col[r]][labels[r]]++
				totals[labels[r]]++
				n++
			}
			left := make([]float64, classes)
			var nLeft float64
			for cut := span.Lo; cut < span.Hi; cut++ {
				for c, v := range counts[cut] {
					left[c] += v
					nLeft += v
				}
				nRight := n - nLeft
				if nLeft < float64(cfg.MinLeaf) || nRight < float64(cfg.MinLeaf) {
					continue
				}
				gain := parentGini - (nLeft*giniOf(left, nLeft)+nRight*giniOfRight(totals, left, nRight))/n
				if gain > best.gain || (gain == best.gain && best.attr == -1) {
					best = split{attr: a, cut: cut, gain: gain}
				}
			}
		}
		if best.attr < 0 || best.gain < cfg.MinGain {
			return node
		}
		var lrows, rrows []int
		for _, r := range rows {
			if cols[best.attr][r] <= best.cut {
				lrows = append(lrows, r)
			} else {
				rrows = append(rrows, r)
			}
		}
		if len(lrows) < cfg.MinLeaf || len(rrows) < cfg.MinLeaf {
			return node
		}
		node.Attr, node.Cut = best.attr, best.cut
		t.Importance[best.attr] += best.gain * float64(len(rows)) / float64(len(labels))
		lspans := append([]Span(nil), spans...)
		rspans := append([]Span(nil), spans...)
		lspans[best.attr].Hi = best.cut
		rspans[best.attr].Lo = best.cut + 1
		node.Left = grow(lrows, lspans, depth+1)
		node.Right = grow(rrows, rspans, depth+1)
		return node
	}
	t.Root = grow(rows, spans, 0)
	if !cfg.DisablePruning {
		prune(t.Root)
	}
	return t
}

// TestColumnarMatchesOracle grows the same data through the columnar
// engine (StaticSource) and the serial row-order oracle and demands
// identical trees — structure, counts, and bit-identical Importance.
func TestColumnarMatchesOracle(t *testing.T) {
	const n, attrs, bins, classes = 30000, 4, 12, 3
	cols, labels := randomCols(11, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{},
		{MinLeaf: 1, DisablePruning: true},
		{MaxDepth: 4},
	} {
		colTree, err := Grow(static, cfg)
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, colTree, oracleGrow(cols, binsV, labels, classes, cfg))
	}
}

// spillFromCols writes columns through the segment codec into temp files
// and wraps them in a SpillSource.
func spillFromCols(t *testing.T, cols [][]int, bins []int, labels []int, classes, cache int) *SpillSource {
	t.Helper()
	dir := t.TempDir()
	readers := make([]*stream.SegmentReader, len(cols))
	for a, col := range cols {
		f, err := os.Create(filepath.Join(dir, "col"+string(rune('a'+a))))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		w := stream.NewSegmentWriter(f)
		for lo := 0; lo < len(col); lo += SegLen {
			hi := lo + SegLen
			if hi > len(col) {
				hi = len(col)
			}
			if err := w.WriteInts(col[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		readers[a] = stream.NewSegmentReader(f, w.Index())
	}
	src, err := NewSpillSource(readers, bins, labels, classes, cache)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSpillSourceMatchesStatic grows from disk-spilled segments (including
// with a pathologically small cache) and compares against the in-memory
// columnar tree.
func TestSpillSourceMatchesStatic(t *testing.T) {
	const n, attrs, bins, classes = 25000, 3, 10, 2
	cols, labels := randomCols(5, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinLeaf: 20}
	want, err := Grow(static, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []int{0, 1, 2} {
		spill := spillFromCols(t, cols, binsV, labels, classes, cache)
		got, err := Grow(spill, cfg)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		treesEqual(t, want, got)
	}
}

// TestSubtreeParallelDeterminism forces deep forking (tiny cutoff) at
// several worker counts; every tree must be identical to the serial one.
func TestSubtreeParallelDeterminism(t *testing.T) {
	const n, attrs, bins, classes = 40000, 5, 16, 3
	cols, labels := randomCols(23, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{MinLeaf: 5, DisablePruning: true, SubtreeMinRows: 32}
	serialCfg := base
	serialCfg.Workers = 1
	want, err := Grow(static, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		for rep := 0; rep < 3; rep++ {
			got, err := Grow(static, cfg)
			if err != nil {
				t.Fatal(err)
			}
			treesEqual(t, want, got)
		}
	}
	// Subtree parallelism disabled must also agree.
	off := base
	off.SubtreeMinRows = -1
	off.Workers = 8
	got, err := Grow(static, off)
	if err != nil {
		t.Fatal(err)
	}
	treesEqual(t, want, got)
}

// TestMemAttrListValidation covers the columnar constructors' edges.
func TestMemAttrListValidation(t *testing.T) {
	if _, err := NewMemAttrList([]int{0, 3}, 3); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := NewMemAttrList([]int{0}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	l, err := NewMemAttrList([]int{1, 0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	seg, err := l.Segment(0)
	if err != nil || len(seg) != 3 || seg[0] != 1 {
		t.Errorf("Segment(0) = %v, %v", seg, err)
	}
	if _, err := l.Segment(1); err == nil {
		t.Error("out-of-range segment accepted")
	}
}

// TestSpillSourceValidation covers grid and consistency checks.
func TestSpillSourceValidation(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	// Mismatched column length, bad labels, empty reader set: construct
	// readers manually.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "short"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := stream.NewSegmentWriter(f)
	if err := w.WriteInts([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	r := stream.NewSegmentReader(f, w.Index())
	if _, err := NewSpillSource([]*stream.SegmentReader{r}, []int{3}, labels, 2, 0); err == nil {
		t.Error("column shorter than labels accepted")
	}
	if _, err := NewSpillSource([]*stream.SegmentReader{r}, []int{3}, []int{0, 5}, 2, 0); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := NewSpillSource(nil, nil, labels, 2, 0); err == nil {
		t.Error("empty reader set accepted")
	}
}

// TestSpillValueOutOfRange ensures a corrupt spilled value surfaces as an
// error from Grow rather than corrupting the histogram.
func TestSpillValueOutOfRange(t *testing.T) {
	n := 100
	col := make([]int, n)
	labels := make([]int, n)
	for i := range col {
		col[i] = i % 4
		labels[i] = i % 2
	}
	// Declare fewer bins than the data uses: values 2..3 become invalid on
	// read.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := stream.NewSegmentWriter(f)
	if err := w.WriteInts(col); err != nil {
		t.Fatal(err)
	}
	r := stream.NewSegmentReader(f, w.Index())
	src, err := NewSpillSource([]*stream.SegmentReader{r}, []int{2}, labels, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Grow(src, Config{MinLeaf: 1}); err == nil {
		t.Fatal("out-of-range spilled value did not error")
	}
}
