package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ppdm"
	"ppdm/internal/core"
	"ppdm/internal/serve"
)

// Parameters of the serving workloads.
const (
	serveTrainRecords = 100_000
	servePool         = 20_000 // distinct clean records the requests carry
	idleRate          = 100    // requests per second
	busyRate          = 1000
	busyZipfS         = 1.1
)

// serveBench is the save → serve → /classify path: a ByClass tree trained
// and saved during set-up is served by serve.New with its default
// configuration on a loopback listener, and this process is the client.
// A run sends an idle phase and then a busy one.
type serveBench struct {
	seed   uint64
	model  string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	addr   string
	// conns are the client's keep-alive connections, one per core. The
	// open-loop senders share them during a phase; the reads of the
	// server's counters before and after it use the first.
	conns []*clientConn

	pool   *ppdm.Table
	bodies [][]byte // one single-record JSON body per pool record
	want   []int    // in-process predictions of the pool records
}

// prepareServe trains and saves the model, renders the request bodies and
// starts the server.
func prepareServe(dir string, seed uint64) (bench, error) {
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: serveTrainRecords, Seed: seed})
	if err != nil {
		return nil, err
	}
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		return nil, err
	}
	perturbed, err := ppdm.PerturbTable(tb, models, seed+1)
	if err != nil {
		return nil, err
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: seed, model: filepath.Join(dir, "model.json")}
	if err := core.WriteFileAtomic(b.model, clf.Save); err != nil {
		return nil, err
	}

	pool, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: servePool, Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	for i := 0; i < pool.N(); i++ {
		body := []byte(`{"record":[`)
		for j, v := range pool.Row(i) {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
		}
		b.bodies = append(b.bodies, append(body, "]}"...))
	}
	b.pool = pool
	return b, b.start()
}

// start serves the saved model on a loopback listener and opens the
// client's keep-alive connections.
func (b *serveBench) start() error {
	srv, err := serve.New(serve.Config{ModelPath: b.model})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.addr = ln.Addr().String()
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := net.Dial("tcp", b.addr)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, &clientConn{c: c, r: bufio.NewReader(c)})
	}
	return nil
}

// close stops the server and waits until it has stopped.
func (b *serveBench) close() {
	if b.hs == nil {
		return
	}
	for _, c := range b.conns {
		c.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		logf("server shutdown: %v", err)
	}
	<-b.served
	b.srv.Close()
	b.hs = nil
}

// clientConn is one keep-alive HTTP/1.1 client connection. Writing the
// request bytes directly keeps the client's own CPU use, which competes
// with the server for the same cores, small.
type clientConn struct {
	c   net.Conn
	r   *bufio.Reader
	req []byte
}

// do sends one request and returns the body of a 200 answer; a request
// with a body is a POST of JSON.
func (c *clientConn) do(host, path string, body []byte) ([]byte, error) {
	method := "GET "
	if body != nil {
		method = "POST "
	}
	c.req = append(append(c.req[:0], method...), path...)
	c.req = append(append(c.req, " HTTP/1.1\r\nHost: "...), host...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json"...)
		c.req = strconv.AppendInt(append(c.req, "\r\nContent-Length: "...), int64(len(body)), 10)
	}
	c.req = append(append(c.req, "\r\n\r\n"...), body...)
	if _, err := c.c.Write(c.req); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s", method, path, resp.Status)
	}
	return out, nil
}

// expect predicts every pool record in process with the saved model.
func (b *serveBench) expect() error {
	f, err := os.Open(b.model)
	if err != nil {
		return err
	}
	defer f.Close()
	clf, err := ppdm.LoadClassifier(f)
	if err != nil {
		return err
	}
	b.want = make([]int, b.pool.N())
	for i := range b.want {
		if b.want[i], err = clf.Predict(b.pool.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// serverCounters are the server-side figures a phase reads from /stats and
// /metrics.
type serverCounters struct {
	batches, records, rejects, hits, misses float64
	buckets                                 []bucket // classify latency histogram
}

func (b *serveBench) counters() (serverCounters, error) {
	var c serverCounters
	raw, err := b.conns[0].do(b.addr, "/stats", nil)
	if err != nil {
		return c, err
	}
	var st struct {
		Batcher struct {
			Batches         int64 `json:"batches"`
			Records         int64 `json:"records"`
			QueueRejects    int64 `json:"queue_rejects"`
			DeadlineRejects int64 `json:"deadline_rejects"`
		} `json:"batcher"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return c, fmt.Errorf("/stats: %w", err)
	}
	c.batches, c.records = float64(st.Batcher.Batches), float64(st.Batcher.Records)
	c.rejects = float64(st.Batcher.QueueRejects + st.Batcher.DeadlineRejects)
	c.hits, c.misses = float64(st.Cache.Hits), float64(st.Cache.Misses)
	prom, err := b.conns[0].do(b.addr, "/metrics", nil)
	if err != nil {
		return c, err
	}
	c.buckets, err = classifyBuckets(prom)
	return c, err
}

// bucket is one cumulative latency-histogram bucket: count requests took
// at most le seconds.
type bucket struct{ le, count float64 }

// classifyBuckets parses the /classify latency histogram from a Prometheus
// text exposition.
func classifyBuckets(prom []byte) ([]bucket, error) {
	var out []bucket
	sc := bufio.NewScanner(bytes.NewReader(prom))
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "_http_request_duration_seconds_bucket{") ||
			!strings.Contains(line, `endpoint="classify"`) {
			continue
		}
		_, rest, _ := strings.Cut(line, `le="`)
		le, rest, _ := strings.Cut(rest, `"`)
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, fmt.Errorf("/metrics: %q: %w", line, err)
			}
		}
		count, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(rest, "}")), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out = append(out, bucket{bound, count})
	}
	if len(out) == 0 {
		return nil, errors.New("/metrics: no classify latency histogram")
	}
	return out, nil
}

// histQuantile estimates the q-quantile, in milliseconds, of the requests
// counted between two snapshots of a cumulative histogram, interpolating
// linearly inside the bucket it falls in (the last finite bound when it
// falls in +Inf).
func histQuantile(before, after []bucket, q float64) float64 {
	if len(before) != len(after) || len(after) == 0 {
		return 0
	}
	total := after[len(after)-1].count - before[len(before)-1].count
	if total <= 0 {
		return 0
	}
	target := q * total
	prevLE, prevCount := 0.0, 0.0
	for i := range after {
		c := after[i].count - before[i].count
		if c >= target {
			if math.IsInf(after[i].le, 1) {
				return prevLE * 1e3
			}
			frac := ratio(target-prevCount, c-prevCount)
			return (prevLE + frac*(after[i].le-prevLE)) * 1e3
		}
		prevLE, prevCount = after[i].le, c
	}
	return prevLE * 1e3
}

// phaseResult is one open-loop phase as the client and the server saw it.
type phaseResult struct {
	load          loadStats
	wall, cpu     time.Duration
	ok, correct   int
	heapMB        []float64 // peak per second
	allocMB       float64
	before, after serverCounters
	profile       []byte
}

// phase is one open-loop phase of a serving run.
type phase struct {
	name  string  // "idle" or "busy"
	rate  float64 // requests per second
	share float64 // of the run's measured time
}

// The idle phase gets two thirds of the run, so that at 15 s or more its
// latencies are over 1000 and its p99 has 10 samples beyond it.
var phases = []phase{{"idle", idleRate, 2.0 / 3}, {"busy", busyRate, 1.0 / 3}}

// requestOrder returns the pool record each of n requests of a phase
// carries: distinct records on idle, Zipf(1.1)-drawn ranks on busy. A
// seeded permutation maps ranks to records, so each seed has its own
// popular records.
func (b *serveBench) requestOrder(p phase, n int) []int {
	r := rand.New(rand.NewPCG(b.seed, 0x5e27e))
	perm := r.Perm(len(b.bodies))
	idx := make([]int, n)
	if p.name == "idle" {
		for i := range idx {
			idx[i] = perm[i%len(perm)]
		}
		return idx
	}
	z := rand.NewZipf(r, busyZipfS, 1, uint64(len(perm)-1))
	for i := range idx {
		idx[i] = perm[z.Uint64()]
	}
	return idx
}

// runPhase sends the requests open-loop at rate and checks every answer
// against the in-process prediction. A traced phase records a span per
// request and a CPU profile.
func (b *serveBench) runPhase(rate float64, idx []int, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{}
	var err error
	if ph.before, err = b.counters(); err != nil {
		return nil, err
	}
	var ok, correct, logged atomic.Int64
	send := func(c, i int) bool {
		id := tr.begin("serve.classify", 0)
		defer tr.end(id)
		k := idx[i]
		class, err := b.classifyOne(b.conns[c], b.bodies[k])
		if err == nil && class != b.want[k] {
			err = fmt.Errorf("record %d: served class %d, in-process Predict %d", k, class, b.want[k])
		}
		if err != nil {
			if logged.Add(1) <= 5 {
				logf("request %d failed: %v", i, err)
			}
			return false
		}
		ok.Add(1)
		if class == b.pool.Label(k) {
			correct.Add(1)
		}
		return true
	}
	runtime.GC()
	smp := startSampler("", time.Second)
	alloc0 := readMetric(heapAllocsMetric)
	var shots []shot
	run := func() error {
		c0 := cpuTime()
		shots = openLoop(time.Now(), rate, len(idx), len(b.conns), send)
		ph.cpu = cpuTime() - c0
		return nil
	}
	if tr != nil {
		ph.profile, err = profileCPU(run)
	} else {
		err = run()
	}
	if err != nil {
		return nil, err
	}
	ph.allocMB = float64(readMetric(heapAllocsMetric)-alloc0) / (1 << 20)
	ph.heapMB, _ = smp.finish()
	ph.load = summarize(shots)
	for _, s := range shots {
		ph.wall = max(ph.wall, s.done.Sub(shots[0].due))
	}
	ph.ok, ph.correct = int(ok.Load()), int(correct.Load())
	if ph.after, err = b.counters(); err != nil {
		return nil, err
	}
	return ph, nil
}

// classifyOne posts one single-record JSON body and returns the served
// class index.
func (b *serveBench) classifyOne(c *clientConn, body []byte) (int, error) {
	raw, err := c.do(b.addr, "/classify", body)
	if err != nil {
		return 0, err
	}
	var resp struct {
		ClassIndices []int `json:"class_indices"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, fmt.Errorf("/classify answer: %w", err)
	}
	if len(resp.ClassIndices) != 1 {
		return 0, fmt.Errorf("/classify answered %d classes for one record", len(resp.ClassIndices))
	}
	return resp.ClassIndices[0], nil
}

// measure runs the idle phase and then the busy phase, for their shares of d.
// A traced run spends the first half of each phase's requests untraced, as
// the overhead baseline, and derives the per-layer figures from the traced
// second halves.
func (b *serveBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var plainLat, tracedLat []float64
	var tracedAlloc, tracedN float64
	for _, p := range phases {
		idx := b.requestOrder(p, int(p.rate*p.share*d.Seconds()))
		if tr == nil {
			ph, err := b.runPhase(p.rate, idx, nil)
			if err != nil {
				return nil, err
			}
			b.addPhase(out, p, ph)
			continue
		}
		half := len(idx) / 2
		plain, err := b.runPhase(p.rate, idx[:half], nil)
		if err != nil {
			return nil, err
		}
		ph, err := b.runPhase(p.rate, idx[half:], tr)
		if err != nil {
			return nil, err
		}
		b.addPhase(out, p, ph)
		out.attempted += half
		out.failed += plain.load.failed
		out.profiles = append(out.profiles, ph.profile)
		plainLat = append(plainLat, plain.load.latMS...)
		tracedLat = append(tracedLat, ph.load.latMS...)
		tracedAlloc += ph.allocMB
		tracedN += float64(len(idx) - half)
		l := out.layers
		sfx := "." + p.name
		l["serve.server_p50_ms"+sfx] = histQuantile(ph.before.buckets, ph.after.buckets, 0.5)
		l["serve.server_p99_ms"+sfx] = histQuantile(ph.before.buckets, ph.after.buckets, 0.99)
		l["serve.batch_records_mean"+sfx] = ratio(ph.after.records-ph.before.records, ph.after.batches-ph.before.batches)
		hits, misses := ph.after.hits-ph.before.hits, ph.after.misses-ph.before.misses
		l["serve.cache_hit_frac"+sfx] = ratio(hits, hits+misses)
		l["serve.rejects"+sfx] = ph.after.rejects - ph.before.rejects
		l["loadgen.late_ms_max"+sfx] = ph.load.lateMaxMS
		l["loadgen.late_frac"+sfx] = ph.load.lateFrac
	}
	if tr != nil {
		// Both halves of both phases hold the same mix of idle and busy
		// requests, so their pooled medians compare.
		out.layers["trace.overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
		out.layers["op.wall_ms"] = median(plainLat)
		out.layers["gc.alloc_mb"] = ratio(tracedAlloc, tracedN)
	}
	out.quality = ratio(out.items, float64(out.attempted))
	return out, nil
}

// addPhase adds an open-loop phase to the run's figures. The idle phase's
// request latencies are the samples of op_p50_ms; both phases' requests
// count towards ok_frac, items_per_cpu_s, quality and peak_heap_mb.
func (b *serveBench) addPhase(out *outcome, p phase, ph *phaseResult) {
	n := len(ph.load.latMS)
	out.attempted += n
	out.failed += ph.load.failed
	out.items += float64(ph.ok)
	out.busy += ph.wall
	out.cpu += ph.cpu
	out.heapMB = append(out.heapMB, ph.heapMB...)
	if p.name == "idle" {
		out.latMS, out.wallMS = ph.load.latMS, ph.load.latMS
	}
	p50, _ := percentile(ph.load.latMS, 50)
	out.named = append(out.named,
		named{"classify_p50_ms." + p.name, p50, "ms", n},
		named{"classify_rate." + p.name, ratio(float64(ph.ok), ph.wall.Seconds()), "req/s", n},
		named{"served_accuracy." + p.name, ratio(float64(ph.correct), float64(ph.ok)), "frac", ph.ok},
		named{"loadgen.late_ms_max." + p.name, ph.load.lateMaxMS, "ms", n},
		named{"loadgen.late_frac." + p.name, ph.load.lateFrac, "frac", n},
	)
	if p99, ok := percentile(ph.load.latMS, 99); ok {
		out.named = append(out.named, named{"classify_p99_ms." + p.name, p99, "ms", n})
	} else {
		logf("classify_p99_ms.%s not reported: fewer than %d of %d samples beyond it", p.name, minBeyond, n)
	}
}
