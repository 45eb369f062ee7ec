package tree

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ppdm/internal/stream"
)

// Engine-level pair for BENCH_tree.json: identical growth workload through
// the in-memory columnar engine and the disk-spilled one. Outputs are
// identical by TestSpillSourceMatchesStatic, so the delta measures pure
// data-access cost.

const benchGrowN = 100000

func benchGrowSource(b *testing.B) (*StaticSource, [][]int, []int) {
	b.Helper()
	cols, labels := randomCols(3, benchGrowN, 6, 20, 3)
	bins := []int{20, 20, 20, 20, 20, 20}
	src, err := NewStaticSource(cols, bins, labels, 3)
	if err != nil {
		b.Fatal(err)
	}
	return src, cols, labels
}

func benchGrowCfg() Config {
	// Serial, unpruned growth isolates the engine cost.
	return Config{MinLeaf: 50, DisablePruning: true, Workers: 1, SubtreeMinRows: -1}
}

func BenchmarkGrowColumnar(b *testing.B) {
	src, _, _ := benchGrowSource(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Grow(src, benchGrowCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrowSpill(b *testing.B) {
	_, cols, labels := benchGrowSource(b)
	dir := b.TempDir()
	readers := make([]*stream.SegmentReader, len(cols))
	for a, col := range cols {
		f, err := os.Create(filepath.Join(dir, "col"+strconv.Itoa(a)))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		w := stream.NewSegmentWriter(f)
		for lo := 0; lo < len(col); lo += SegLen {
			hi := lo + SegLen
			if hi > len(col) {
				hi = len(col)
			}
			if err := w.WriteInts(col[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		readers[a] = stream.NewSegmentReader(f, w.Index())
	}
	src, err := NewSpillSource(readers, []int{20, 20, 20, 20, 20, 20}, labels, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Grow(src, benchGrowCfg()); err != nil {
			b.Fatal(err)
		}
	}
}
