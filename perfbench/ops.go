package main

import (
	"runtime"
	"time"
)

// opRun is the record of one operation of an operation-loop workload.
type opRun struct {
	wall    time.Duration
	cpu     time.Duration // the process's CPU time during the operation
	traced  bool
	failed  bool
	heapMB  float64 // peak live heap during the operation
	spillMB float64 // peak bytes under the spill directory (traced only)
	allocMB float64 // heap bytes allocated by the operation
	profile []byte  // CPU profile (traced only)
}

// opLoop runs op back to back while the next one is expected to end
// within d of the start (judged by the last one's time), at least once. In a
// traced run operations alternate untraced and traced, beginning
// untraced, and at least one of each runs: the traced ones give the
// per-layer numbers (spans under a root span named "op", a CPU profile and
// the spill-directory peak) and the untraced ones the baseline for the
// tracing overhead. After each operation, untimed, check verifies its
// output. An operation that returns an error or fails its check counts as
// failed.
func opLoop(d time.Duration, tr *tracer, spillDir string, op func(tr *tracer, root int) error, check func() error) opRuns {
	var runs opRuns
	start := time.Now()
	for i := 0; ; i++ {
		traced := tr != nil && i%2 == 1
		if i > 0 && time.Since(start)+runs[i-1].wall > d && (tr == nil || i >= 2) {
			return runs
		}
		// Each operation starts from a collected heap, so its peak does
		// not count garbage an earlier step left behind.
		runtime.GC()
		dir, opTr := "", (*tracer)(nil)
		if traced {
			dir, opTr = spillDir, tr
		}
		r := opRun{traced: traced}
		smp := startSampler(dir, 0)
		alloc0 := readMetric(heapAllocsMetric)
		// The operation times itself, leaving out the profiler's start and
		// stop.
		body := func() error {
			t0, c0 := time.Now(), cpuTime()
			defer func() { r.wall, r.cpu = time.Since(t0), cpuTime()-c0 }()
			root := opTr.begin("op", 0)
			defer opTr.end(root)
			return op(opTr, root)
		}
		var err error
		if traced {
			r.profile, err = profileCPU(body)
		} else {
			err = body()
		}
		r.allocMB = float64(readMetric(heapAllocsMetric)-alloc0) / (1 << 20)
		heap, spill := smp.finish()
		r.heapMB, r.spillMB = heap[0], spill
		if err == nil {
			err = check()
		}
		r.failed = err != nil
		if err != nil {
			logf("operation %d failed: %v", i, err)
		}
		runs = append(runs, r)
	}
}

// opRuns are the operations of one run.
type opRuns []opRun

// outcome fills the end-to-end figures of an operation loop from its
// untraced operations, and the run-wide per-layer figures from its traced
// ones; itemsPerOp is the work one operation does. An operation's cost is
// its CPU time (see cpuTime). A failed operation does no work and misses
// every latency limit: it is charged the cost and the time of the whole
// loop.
func (runs opRuns) outcome(itemsPerOp float64) *outcome {
	out := &outcome{layers: map[string]float64{}}
	var plain, traced, allocs, spills []float64
	var loop, loopCPU time.Duration
	for _, r := range runs {
		loop += r.wall
		loopCPU += r.cpu
	}
	for _, r := range runs {
		out.attempted++
		if r.failed {
			out.failed++
			out.busy += r.wall
			out.cpu += r.cpu
			out.latMS = append(out.latMS, float64(loopCPU)/1e6)
			out.wallMS = append(out.wallMS, float64(loop)/1e6)
			continue
		}
		ms := float64(r.wall) / 1e6
		if r.traced {
			traced = append(traced, ms)
			allocs = append(allocs, r.allocMB)
			spills = append(spills, r.spillMB)
			out.profiles = append(out.profiles, r.profile)
			continue
		}
		plain = append(plain, ms)
		out.busy += r.wall
		out.cpu += r.cpu
		out.items += itemsPerOp
		out.latMS = append(out.latMS, float64(r.cpu)/1e6)
		out.wallMS = append(out.wallMS, ms)
		out.heapMB = append(out.heapMB, r.heapMB)
	}
	out.tracedOps = len(traced)
	if len(traced) > 0 {
		out.layers["trace.overhead_frac"] = ratio(median(traced), median(plain)) - 1
		out.layers["gc.alloc_mb"] = median(allocs)
		out.layers["core.spill_peak_mb"] = median(spills)
		out.layers["op.wall_ms"] = median(plain)
	}
	return out
}
