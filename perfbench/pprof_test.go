package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
	"time"
)

// protoBuf encodes the few protobuf shapes a pprof profile uses.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) uint(num int, x uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(x)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// testProfile builds a gzipped profile with one location per function
// (locations and functions share IDs) and one sample per stack; stacks
// list function IDs innermost first. Location IDs are written packed,
// sample values unpacked, as encoders may do either.
func testProfile(t *testing.T, funcs []frame, stacks [][]uint64, counts []int64) []byte {
	t.Helper()
	var strs []string
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	str("")
	var p protoBuf
	for i, st := range stacks {
		var s, packed protoBuf
		for _, id := range st {
			packed.varint(id)
		}
		s.bytes(sampleLocationID, packed.b)
		s.uint(sampleValue, uint64(counts[i]))
		s.uint(sampleValue, uint64(counts[i])*10_000_000)
		p.bytes(profSample, s.b)
	}
	for i, f := range funcs {
		id := uint64(i + 1)
		var line, loc, fn protoBuf
		line.uint(lineFunctionID, id)
		loc.uint(locationID, id)
		loc.bytes(locationLine, line.b)
		p.bytes(profLocation, loc.b)
		fn.uint(functionID, id)
		fn.uint(functionName, str(f.fn))
		fn.uint(functionFilename, str(f.file))
		p.bytes(profFunction, fn.b)
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// TestSamplesGoToTheInnermostPpdmPackage checks that standard-library work
// is charged to the ppdm package that called it, and how the stream and
// reconstruct packages split.
func TestSamplesGoToTheInnermostPpdmPackage(t *testing.T) {
	funcs := []frame{
		{"compress/flate.(*compressor).deflate", "deflate.go"},              // 1
		{"ppdm/internal/stream.(*SegmentWriter).WriteFloats", "segment.go"}, // 2
		{"ppdm/internal/core.TrainStream", "colstream.go"},                  // 3
		{"main.main", "main.go"},                                            // 4
		{"strconv.ParseFloat", "atof.go"},                                   // 5
		{"ppdm/internal/stream.(*Reader).Next", "codec.go"},                 // 6
		{"ppdm/internal/reconstruct.(*Collector).Add", "collector.go"},      // 7
		{"ppdm/internal/bayes.TrainStream", "stream.go"},                    // 8
		{"runtime.mallocgc", "malloc.go"},                                   // 9
		{"ppdm/internal/serve/middleware.(*Metrics).Wrap.func1", "m.go"},    // 10
		{"net/http.(*conn).serve", "server.go"},                             // 11
		{"runtime.gcBgMarkWorker", "mgc.go"},                                // 12
		{"main.(*clientConn).do", "serve.go"},                               // 13
		{"sort.Slice", "slice.go"},                                          // 14
		{"ppdm/internal/core.orderedAssign", "assign.go"},                   // 15
	}
	stacks := [][]uint64{
		{1, 2, 3, 4},   // deflate under the segment writer: stream.segment
		{5, 6, 3, 4},   // ParseFloat under the CSV reader: stream.csv
		{7, 8, 4},      // Collector.Add: reconstruct.collector
		{9, 8, 4},      // an allocation in bayes: bayes, and GC share
		{10, 11},       // serving middleware under net/http: serve
		{11},           // net/http server alone: nethttp
		{12},           // background GC: gc
		{13},           // the benchmark's own client: bench
		{14, 15, 3, 4}, // the assignment sort: core
	}
	counts := []int64{4, 3, 2, 1, 1, 1, 1, 1, 2}
	p, err := parseProfile(testProfile(t, funcs, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != len(stacks) || len(p.stacks[0]) != 4 || p.stacks[0][0].fn != funcs[0].fn {
		t.Fatalf("decoded stacks %v", p.stacks)
	}
	shares, gc := cpuShares(p)
	want := map[string]float64{
		"stream.segment": 4, "stream.csv": 3, "reconstruct.collector": 2, "bayes": 1,
		"serve": 1, "nethttp": 1, "gc": 1, "bench": 1, "core": 2,
	}
	for layer, n := range want {
		if got := shares[layer]; math.Abs(got-n/16) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", layer, got, n/16)
		}
	}
	if math.Abs(gc-2.0/16) > 1e-12 {
		t.Errorf("gc share = %v, want 2/16 (mallocgc and gcBgMarkWorker)", gc)
	}
}

// TestParseRuntimeProfile decodes a real runtime/pprof CPU profile.
func TestParseRuntimeProfile(t *testing.T) {
	sink := 0.0
	raw, err := profileCPU(func() error {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1e5; i++ {
				sink += math.Sqrt(float64(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink == 0 {
		t.Fatal("no work done")
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for i, st := range p.stacks {
		n += p.counts[i]
		if len(st) == 0 {
			t.Fatal("sample with an empty stack")
		}
	}
	if n == 0 {
		t.Fatal("no samples decoded")
	}
}
