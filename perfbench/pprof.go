package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone, and attributes each
// sample to a layer of the program.

// frame is one function of a sampled stack.
type frame struct {
	fn, file string
}

// cpuProfile is a decoded profile: one stack (innermost frame first) and
// one sample count per sample.
type cpuProfile struct {
	stacks [][]frame
	counts []int64
}

// The profile.proto field numbers the decoder reads.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcName  = map[uint64]int64{}
		funcFile  = map[uint64]int64{}
		decodeErr error
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			first := true
			decodeErr = eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, v, b)
				case sampleValue:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			decodeErr = eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name, file int64
			decodeErr = eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				case functionFilename:
					file = int64(v)
				}
				return nil
			})
			funcName[id], funcFile[id] = name, file
		case profStringTable:
			strs = append(strs, string(b))
		}
		return decodeErr
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var st []frame
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				st = append(st, frame{fn: str(funcName[fid]), file: str(funcFile[fid])})
			}
		}
		p.stacks = append(p.stacks, st)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values: v when the field
// came unpacked, or every varint of the packed bytes b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: with the value
// of a varint field, or with the bytes of a length-delimited one (b is nil
// for every other wire type).
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the value and its length
// (0 when data ends first).
func uvarint(data []byte) (uint64, int) {
	var x uint64
	for i, c := range data {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf names the layer a sampled stack's CPU time counts against: the
// package of its innermost ppdm frame, so standard-library work (deflate,
// strconv, sorting) is charged to the ppdm code that called it. The stream
// package splits into its CSV record codec and its spill-segment codec, and
// reconstruct into the Collector and the rest. Stacks with no ppdm frame
// are the benchmark's own client code ("bench"), the HTTP server
// ("nethttp"), the garbage collector ("gc"), or "other".
func layerOf(stack []frame) string {
	for _, f := range stack {
		if !strings.HasPrefix(f.fn, "ppdm/") {
			continue
		}
		pkg := packageOf(f.fn)
		switch pkg {
		case "ppdm/internal/stream":
			switch path.Base(f.file) {
			case "segment.go", "concat.go":
				return "stream.segment"
			}
			return "stream.csv"
		case "ppdm/internal/reconstruct":
			if strings.Contains(f.fn, "Collector") {
				return "reconstruct.collector"
			}
			return "reconstruct"
		}
		if strings.HasPrefix(pkg, "ppdm/internal/serve") {
			return "serve"
		}
		return path.Base(pkg)
	}
	if anyFrame(stack, "main.") {
		return "bench"
	}
	if anyFrame(stack, "net/http.") {
		return "nethttp"
	}
	if inGC(stack) {
		return "gc"
	}
	return "other"
}

// anyFrame reports whether a frame's function starts with one of prefixes.
func anyFrame(stack []frame, prefixes ...string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f.fn, p) {
				return true
			}
		}
	}
	return false
}

// inGC reports whether the stack is garbage-collector or allocator work.
func inGC(stack []frame) bool {
	return anyFrame(stack, "runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge")
}

// packageOf returns the import path of a symbol such as
// "ppdm/internal/core.(*Classifier).Save".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares returns each layer's share of the profile's samples, plus the
// share of samples spent in the garbage collector or the allocator (which
// overlaps the layer shares: an allocation is also charged to the layer
// that made it).
func cpuShares(p *cpuProfile) (layers map[string]float64, gc float64) {
	layers = map[string]float64{}
	var total, gcN float64
	for i, st := range p.stacks {
		c := float64(p.counts[i])
		total += c
		layers[layerOf(st)] += c
		if inGC(st) {
			gcN += c
		}
	}
	for k, v := range layers {
		layers[k] = ratio(v, total)
	}
	return layers, ratio(gcN, total)
}
