package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Value widths of the segment codec, in bytes.
const (
	floatWidth = 8 // float64 as its IEEE-754 bits
	intWidth   = 4 // int as int32
)

// maxSegmentValues bounds the values one segment may hold. Writers refuse
// longer segments and readers refuse indices that claim them, so a corrupt
// index cannot make a read allocate more than maxSegmentValues×floatWidth
// bytes. Training spills on the 8192-value tree.SegLen grid, far below it.
const maxSegmentValues = 1 << 20

// Segment locates one column segment inside a segment file: the byte range
// holding its values and the number of values it holds. Indices live in
// memory for the lifetime of the spill (segment files are scratch of one
// training run, not an interchange format).
type Segment struct {
	// Off and Size bound the segment's bytes in the file.
	Off, Size int64
	// Count is the number of values in the segment.
	Count int
}

// SegmentWriter spills a column to a file as a sequence of segments — the
// out-of-core counterpart of a memory-resident attribute list. A segment is
// one plain byte range of fixed-width little-endian values: a float64 is its
// 8 IEEE-754 bytes (math.Float64bits) and an int is 4 bytes of int32. A
// spilled value therefore re-reads bit-identically, which is what lets the
// out-of-core training path reproduce the in-memory path byte for byte.
type SegmentWriter struct {
	w     io.Writer
	off   int64
	index []Segment
	buf   []byte
}

// NewSegmentWriter starts a segment file on w (typically an *os.File).
func NewSegmentWriter(w io.Writer) *SegmentWriter {
	return &SegmentWriter{w: w}
}

// Segments returns the number of segments written so far.
func (w *SegmentWriter) Segments() int { return len(w.index) }

// N returns the total number of values written so far.
func (w *SegmentWriter) N() int {
	n := 0
	for _, s := range w.index {
		n += s.Count
	}
	return n
}

// Index returns the segment directory needed to read the file back. The
// returned slice is a copy and stays valid after further writes.
func (w *SegmentWriter) Index() []Segment {
	return append([]Segment(nil), w.index...)
}

// WriteFloats appends one segment of float64 values.
func (w *SegmentWriter) WriteFloats(vals []float64) error {
	buf, err := w.payload(len(vals), floatWidth)
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*floatWidth:], math.Float64bits(v))
	}
	return w.writeSegment(len(vals), buf)
}

// WriteInts appends one segment of integer values. Every value must fit in
// an int32.
func (w *SegmentWriter) WriteInts(vals []int) error {
	buf, err := w.payload(len(vals), intWidth)
	if err != nil {
		return err
	}
	for i, v := range vals {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("stream: segment %d value %d: %d does not fit in int32", len(w.index), i, v)
		}
		binary.LittleEndian.PutUint32(buf[i*intWidth:], uint32(int32(v)))
	}
	return w.writeSegment(len(vals), buf)
}

// payload validates a segment's length and returns the reused encode
// buffer sized for it.
func (w *SegmentWriter) payload(count, width int) ([]byte, error) {
	if count == 0 {
		return nil, fmt.Errorf("stream: refusing to write an empty segment")
	}
	if count > maxSegmentValues {
		return nil, fmt.Errorf("stream: segment of %d values exceeds the %d-value limit", count, maxSegmentValues)
	}
	size := count * width
	if cap(w.buf) < size {
		w.buf = make([]byte, size)
	}
	return w.buf[:size], nil
}

// writeSegment writes one encoded segment and records it in the index.
func (w *SegmentWriter) writeSegment(count int, payload []byte) error {
	off := w.off
	n, err := w.w.Write(payload)
	w.off += int64(n)
	if err != nil {
		return fmt.Errorf("stream: writing segment %d: %w", len(w.index), err)
	}
	w.index = append(w.index, Segment{Off: off, Size: int64(n), Count: count})
	return nil
}

// SegmentReader reads individual segments of a file written by
// SegmentWriter, in any order. Reads are stateless — each call is one
// ReadAt of the segment's byte range — so a reader is safe for concurrent
// use as long as the underlying ReaderAt is (an *os.File is).
type SegmentReader struct {
	r     io.ReaderAt
	index []Segment
}

// NewSegmentReader wraps a written segment file and the index its writer
// produced.
func NewSegmentReader(r io.ReaderAt, index []Segment) *SegmentReader {
	return &SegmentReader{r: r, index: index}
}

// Segments returns the number of segments in the file.
func (r *SegmentReader) Segments() int { return len(r.index) }

// Count returns the number of values in segment seg.
func (r *SegmentReader) Count(seg int) int { return r.index[seg].Count }

// N returns the total number of values across all segments.
func (r *SegmentReader) N() int {
	n := 0
	for _, s := range r.index {
		n += s.Count
	}
	return n
}

// ReadFloats decodes one float64 segment. The values are bit-identical to
// what WriteFloats was given.
func (r *SegmentReader) ReadFloats(seg int) ([]float64, error) {
	raw, err := r.readSegment(seg, floatWidth)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw)/floatWidth)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*floatWidth:]))
	}
	return out, nil
}

// ReadInts decodes one integer segment.
func (r *SegmentReader) ReadInts(seg int) ([]int, error) {
	raw, err := r.readSegment(seg, intWidth)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(raw)/intWidth)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[i*intWidth:])))
	}
	return out, nil
}

// readSegment validates segment seg's index entry against the value width
// and returns its bytes, read with a single ReadAt.
func (r *SegmentReader) readSegment(seg, width int) ([]byte, error) {
	if seg < 0 || seg >= len(r.index) {
		return nil, fmt.Errorf("stream: segment %d outside file of %d segments", seg, len(r.index))
	}
	s := r.index[seg]
	if s.Count < 1 || s.Count > maxSegmentValues {
		return nil, fmt.Errorf("stream: segment %d holds %d values, want 1..%d", seg, s.Count, maxSegmentValues)
	}
	if s.Size != int64(s.Count*width) {
		return nil, fmt.Errorf("stream: segment %d spans %d bytes, %d values of %d bytes need %d",
			seg, s.Size, s.Count, width, s.Count*width)
	}
	if s.Off < 0 {
		return nil, fmt.Errorf("stream: segment %d at negative offset %d", seg, s.Off)
	}
	buf := make([]byte, s.Size)
	n, err := r.r.ReadAt(buf, s.Off)
	if n < len(buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("stream: reading segment %d: %d of %d bytes: %w", seg, n, len(buf), err)
	}
	return buf, nil
}
