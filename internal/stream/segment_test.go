package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

func TestSegmentRoundTripFloats(t *testing.T) {
	r := prng.New(7)
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	want := make([][]float64, 5)
	for s := range want {
		vals := make([]float64, 100+s*37)
		for i := range vals {
			// Adversarial values: full-precision doubles, negatives, tiny
			// and huge magnitudes — the codec must round-trip bits.
			vals[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(60)-30))
		}
		want[s] = vals
		if err := w.WriteFloats(vals); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() != 5 {
		t.Fatalf("writer reports %d segments, want 5", w.Segments())
	}

	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	if rd.N() != w.N() {
		t.Fatalf("reader N %d != writer N %d", rd.N(), w.N())
	}
	// Read out of order on purpose.
	for _, s := range []int{3, 0, 4, 2, 1} {
		got, err := rd.ReadFloats(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[s]) {
			t.Fatalf("segment %d: %d values, want %d", s, len(got), len(want[s]))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[s][i]) {
				t.Fatalf("segment %d value %d: %v != %v (bits differ)", s, i, got[i], want[s][i])
			}
		}
	}
}

func TestSegmentRoundTripInts(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	want := [][]int{{0, 1, 2, 49}, {5}, {7, 7, 7, 7, 7, 7}}
	for _, vals := range want {
		if err := w.WriteInts(vals); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	for s := range want {
		got, err := rd.ReadInts(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[s]) {
			t.Fatalf("segment %d length %d, want %d", s, len(got), len(want[s]))
		}
		for i := range got {
			if got[i] != want[s][i] {
				t.Fatalf("segment %d value %d: %d != %d", s, i, got[i], want[s][i])
			}
		}
		if rd.Count(s) != len(want[s]) {
			t.Fatalf("index count %d, want %d", rd.Count(s), len(want[s]))
		}
	}
}

func TestSegmentWriterRejectsEmpty(t *testing.T) {
	w := NewSegmentWriter(&bytes.Buffer{})
	if err := w.WriteInts(nil); err == nil {
		t.Fatal("empty segment accepted")
	}
	if err := w.WriteFloats([]float64{}); err == nil {
		t.Fatal("empty float segment accepted")
	}
}

func TestSegmentReaderBounds(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteInts([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	if _, err := rd.ReadInts(-1); err == nil {
		t.Error("negative segment accepted")
	}
	if _, err := rd.ReadInts(1); err == nil {
		t.Error("out-of-range segment accepted")
	}
	// Type confusion: the value widths differ, so decoding a segment as
	// the other type fails the size check.
	var fbuf bytes.Buffer
	fw := NewSegmentWriter(&fbuf)
	if err := fw.WriteFloats([]float64{1.5}); err != nil {
		t.Fatal(err)
	}
	frd := NewSegmentReader(bytes.NewReader(fbuf.Bytes()), fw.Index())
	if _, err := frd.ReadInts(0); err == nil {
		t.Error("int decode of a float segment succeeded")
	}
	if _, err := rd.ReadFloats(0); err == nil {
		t.Error("float decode of an int segment succeeded")
	}
}

// Segment files must work through real files and concurrent readers (the
// tree's parallel split search reads different attributes at once).
func TestSegmentFileConcurrentReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "col.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSegmentWriter(f)
	const segs, per = 16, 512
	for s := 0; s < segs; s++ {
		vals := make([]int, per)
		for i := range vals {
			vals[i] = s*per + i
		}
		if err := w.WriteInts(vals); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewSegmentReader(f, w.Index())
	errs := make(chan error, segs)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for s := g; s < segs; s += 8 {
				vals, err := rd.ReadInts(s)
				if err != nil {
					errs <- err
					return
				}
				for i, v := range vals {
					if v != s*per+i {
						errs <- os.ErrInvalid
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
}

// specialFloats are the encodings a text codec gets wrong most easily:
// signed zeros, subnormals, the extremes, infinities and NaN payloads.
var specialFloats = []float64{
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead00beef01), // negative NaN with a payload
}

// roundTripFloats writes vals as one segment and reads it back.
func roundTripFloats(vals []float64) ([]float64, error) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteFloats(vals); err != nil {
		return nil, err
	}
	return NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index()).ReadFloats(0)
}

func TestSegmentFloatsRoundTripProperty(t *testing.T) {
	roundTrip := func(vals []float64, at uint16) bool {
		// Force every special value into the input at a varying position.
		pos := 0
		if len(vals) > 0 {
			pos = int(at) % len(vals)
		}
		in := append(append(append([]float64(nil), vals[:pos]...), specialFloats...), vals[pos:]...)
		got, err := roundTripFloats(in)
		if err != nil {
			t.Errorf("round trip of %d values: %v", len(in), err)
			return false
		}
		if len(got) != len(in) {
			return false
		}
		for i := range in {
			if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntsRoundTripProperty(t *testing.T) {
	roundTrip := func(raw []int32) bool {
		in := []int{math.MinInt32, -1, 0, 1, math.MaxInt32}
		for _, v := range raw {
			in = append(in, int(v))
		}
		var buf bytes.Buffer
		w := NewSegmentWriter(&buf)
		if err := w.WriteInts(in); err != nil {
			t.Errorf("write: %v", err)
			return false
		}
		got, err := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index()).ReadInts(0)
		if err != nil {
			t.Errorf("read: %v", err)
			return false
		}
		if len(got) != len(in) {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentWriterRejectsOutOfRangeInts(t *testing.T) {
	for _, v := range []int{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
		var buf bytes.Buffer
		w := NewSegmentWriter(&buf)
		if err := w.WriteInts([]int{0, v}); err == nil {
			t.Errorf("WriteInts accepted %d", v)
		}
		if w.Segments() != 0 || buf.Len() != 0 {
			t.Errorf("rejected segment with %d left %d index entries and %d bytes", v, w.Segments(), buf.Len())
		}
	}
}

func TestSegmentWriterRejectsOversize(t *testing.T) {
	w := NewSegmentWriter(&bytes.Buffer{})
	if err := w.WriteInts(make([]int, maxSegmentValues+1)); err == nil {
		t.Fatal("segment over the value limit accepted")
	}
}

// TestSegmentReaderRejectsBadIndex feeds the reader indices and files that
// no writer produced: each read must fail rather than return values.
func TestSegmentReaderRejectsBadIndex(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteFloats([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	good := w.Index()[0] // {Off: 0, Size: 24, Count: 3}
	cases := []struct {
		name string
		file []byte
		seg  Segment
	}{
		{"size below count×width", file, Segment{Off: 0, Size: 16, Count: 3}},
		{"size above count×width", file, Segment{Off: 0, Size: 24, Count: 2}},
		{"truncated file", file[:len(file)-1], good},
		{"segment past the end", file, Segment{Off: 8, Size: 24, Count: 3}},
		{"negative offset", file, Segment{Off: -8, Size: 24, Count: 3}},
		{"empty segment", file, Segment{Off: 0, Size: 0, Count: 0}},
		{"negative count", file, Segment{Off: 0, Size: -8, Count: -1}},
		{"count over the limit", file, Segment{Off: 0, Size: 8 * (maxSegmentValues + 1), Count: maxSegmentValues + 1}},
	}
	for _, c := range cases {
		rd := NewSegmentReader(bytes.NewReader(c.file), []Segment{c.seg})
		if vals, err := rd.ReadFloats(0); err == nil {
			t.Errorf("%s: read %d values, want an error", c.name, len(vals))
		}
	}
	rd := NewSegmentReader(bytes.NewReader(file), []Segment{good})
	for _, seg := range []int{-1, 1, 1 << 40} {
		if _, err := rd.ReadFloats(seg); err == nil {
			t.Errorf("segment %d of a 1-segment file accepted", seg)
		}
	}
	if _, err := rd.ReadFloats(0); err != nil {
		t.Errorf("the valid index entry fails: %v", err)
	}
}

// FuzzSegmentReader reads arbitrary bytes through an arbitrary one-entry
// index: the reader returns values or an error and never panics, and a read
// that succeeds decodes exactly the indexed bytes. The same bytes, written
// as float and int segments, read back bit-identically. The seed corpus is
// under testdata/fuzz/FuzzSegmentReader.
func FuzzSegmentReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte, off, size int64, count int) {
		rd := NewSegmentReader(bytes.NewReader(file), []Segment{{Off: off, Size: size, Count: count}})
		if vals, err := rd.ReadFloats(0); err == nil {
			if len(vals) != count || size != int64(8*count) {
				t.Fatalf("read %d floats from a %d-value, %d-byte index entry", len(vals), count, size)
			}
			for i, v := range vals {
				want := binary.LittleEndian.Uint64(file[off+int64(8*i):])
				if math.Float64bits(v) != want {
					t.Fatalf("float %d: bits %#x, file holds %#x", i, math.Float64bits(v), want)
				}
			}
		}
		if vals, err := rd.ReadInts(0); err == nil {
			if len(vals) != count || size != int64(4*count) {
				t.Fatalf("read %d ints from a %d-value, %d-byte index entry", len(vals), count, size)
			}
			for i, v := range vals {
				if want := int32(binary.LittleEndian.Uint32(file[off+int64(4*i):])); v != int(want) {
					t.Fatalf("int %d: %d, file holds %d", i, v, want)
				}
			}
		}

		if floats := len(file) / 8; floats > 0 {
			in := make([]float64, floats)
			for i := range in {
				in[i] = math.Float64frombits(binary.LittleEndian.Uint64(file[8*i:]))
			}
			got, err := roundTripFloats(in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range in {
				if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
					t.Fatalf("float %d: wrote bits %#x, read %#x", i, math.Float64bits(in[i]), math.Float64bits(got[i]))
				}
			}
		}
		if ints := len(file) / 4; ints > 0 {
			in := make([]int, ints)
			for i := range in {
				in[i] = int(int32(binary.LittleEndian.Uint32(file[4*i:])))
			}
			var buf bytes.Buffer
			w := NewSegmentWriter(&buf)
			if err := w.WriteInts(in); err != nil {
				t.Fatal(err)
			}
			got, err := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index()).ReadInts(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("int %d: wrote %d, read %d", i, in[i], got[i])
				}
			}
		}
	})
}
