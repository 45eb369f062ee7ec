package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppdm"
)

// span is one call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer started; Parent is 0 for a root span. All
// spans of one operation share its root's ID as Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a new operation) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes sums, per span name, the spans' durations (total) and their
// self time: a span's duration minus the part of it its child spans cover.
// Children of one span never overlap here (the benchmark calls layers one at a
// time within an operation), so covered time is the children's sum.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	childTime := map[int]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - childTime[s.ID])
	}
	return total, self
}

// writeSpans writes the spans and the run's environment as JSON to path.
func writeSpans(path string, env map[string]string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   map[string]string `json:"env"`
		Spans []span            `json:"spans"`
	}{env, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profileCPU runs fn under the runtime/pprof CPU profiler and returns the
// gzipped profile.
func profileCPU(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// tracedSource wraps the record source a training operation reads, so each
// Next the trainer makes into the stream layer is a span.
type tracedSource struct {
	ppdm.RecordSource
	tr     *tracer
	parent int
}

func (s tracedSource) Next() (*ppdm.RecordBatch, error) {
	id := s.tr.begin("stream.Next", s.parent)
	defer s.tr.end(id)
	return s.RecordSource.Next()
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Runtime metrics the samplers read.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapAllocsMetric  = "/gc/heap/allocs:bytes"
)

// readMetric returns the current value of one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler polls the live heap (and, when dir is set, the bytes under dir)
// until stopped. It keeps the heap's peak per window of the given length
// (one window when 0), and the directory's overall peak.
type sampler struct {
	stop      chan struct{}
	done      chan struct{}
	heapPeaks []uint64
	dirPeak   int64
}

// sampleEvery is the polling period of a sampler.
const sampleEvery = 5 * time.Millisecond

func startSampler(dir string, window time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), heapPeaks: []uint64{0}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		start := time.Now()
		for {
			if window > 0 && time.Since(start) > time.Duration(len(s.heapPeaks))*window {
				s.heapPeaks = append(s.heapPeaks, 0)
			}
			last := &s.heapPeaks[len(s.heapPeaks)-1]
			if h := readMetric(heapObjectsMetric); h > *last {
				*last = h
			}
			if dir != "" {
				if b := dirBytes(dir); b > s.dirPeak {
					s.dirPeak = b
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the heap's window
// peaks and the directory's peak, in MiB.
func (s *sampler) finish() (heapMB []float64, dirMB float64) {
	close(s.stop)
	<-s.done
	for _, p := range s.heapPeaks {
		heapMB = append(heapMB, float64(p)/(1<<20))
	}
	return heapMB, float64(s.dirPeak) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir. Files removed
// while it walks are skipped.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cpuTime returns the CPU time (user plus system) the process has used so
// far. The kernel leaves out the time a virtual machine's host runs other
// tenants on its CPUs (steal) and the time other processes hold them, so
// the figure follows the work done rather than the machine's load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the machine's steal and total CPU ticks from
// /proc/stat, both 0 where it cannot be read.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
