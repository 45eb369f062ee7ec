package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// ramp returns the samples 1, 2, ..., n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 99, 990, true}, // samples 991..1000 lie beyond
		{999, 99, 990, false}, // only 9 beyond
		{100, 90, 90, true},   // exactly 10 beyond
		{99, 90, 90, false},   // 9 beyond
		{10000, 99.9, 9990, true},
		{3, 50, 2, true}, // the median is always reported
		{1, 99, 1, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestDueTimesFollowTheRate(t *testing.T) {
	start := time.Unix(100, 0)
	for i, want := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond} {
		if got := dueAt(start, 100, i).Sub(start); got != want {
			t.Errorf("request %d due at +%v, want +%v", i, got, want)
		}
	}
	if got := dueAt(start, 1000, 2500).Sub(start); got != 2500*time.Millisecond {
		t.Errorf("request 2500 at 1000/s due at +%v", got)
	}
}

// TestLatencyCountsFromDueTime checks the open-loop accounting: a request
// that waited behind a stall is charged the wait from its due time, and the
// generator's own lateness is reported apart.
func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(x float64) time.Time { return t0.Add(time.Duration(x * float64(time.Millisecond))) }
	shots := []shot{
		// on time, answered in 2 ms
		{due: ms(0), dispatched: ms(0), done: ms(2), ok: true},
		// dispatched on time but queued behind a stall: 25 ms from due
		{due: ms(10), dispatched: ms(10.2), done: ms(35), ok: true},
		// the generator ran 3 ms late; latency still counts from due
		{due: ms(20), dispatched: ms(23), done: ms(24), ok: true},
		// refused: charged the whole phase, from the first due time to
		// the last answer
		{due: ms(30), dispatched: ms(30), done: ms(31), ok: false},
	}
	st := summarize(shots)
	want := []float64{2, 4, 25, 35}
	if len(st.latMS) != len(want) {
		t.Fatalf("latencies %v, want %v", st.latMS, want)
	}
	for i := range want {
		if math.Abs(st.latMS[i]-want[i]) > 1e-9 {
			t.Errorf("latency %d = %v ms, want %v", i, st.latMS[i], want[i])
		}
	}
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1", st.failed)
	}
	if math.Abs(st.lateMaxMS-3) > 1e-9 {
		t.Errorf("lateMaxMS = %v, want 3", st.lateMaxMS)
	}
	if st.lateFrac != 0.25 {
		t.Errorf("lateFrac = %v, want 0.25 (one of four over %v)", st.lateFrac, lateAfter)
	}
}

func TestOpenLoopSendsEveryRequestOnSchedule(t *testing.T) {
	start := time.Now()
	shots := openLoop(start, 1000, 50, 2, func(_, i int) bool { return i%10 != 9 })
	st := summarize(shots)
	if len(st.latMS) != 50 || st.failed != 5 {
		t.Fatalf("%d latencies, %d failed; want 50, 5", len(st.latMS), st.failed)
	}
	for i, s := range shots {
		if !s.due.Equal(dueAt(start, 1000, i)) || s.dispatched.Before(s.due) || s.done.Before(s.dispatched) {
			t.Fatalf("request %d timeline out of order: %+v", i, s)
		}
	}
}

func TestLayerTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "train", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "next", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "next", Start: 50, End: 70},
	}
	total, self := layerTimes(spans)
	for name, want := range map[string]time.Duration{"op": 100, "train": 80, "next": 30} {
		if total[name] != want {
			t.Errorf("total[%s] = %v, want %v", name, total[name], want)
		}
	}
	for name, want := range map[string]time.Duration{"op": 20, "train": 50, "next": 30} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}

func TestHistogramQuantileOfADelta(t *testing.T) {
	before := []bucket{{0.001, 5}, {0.005, 5}, {math.Inf(1), 5}}
	after := []bucket{{0.001, 55}, {0.005, 95}, {math.Inf(1), 105}}
	// 100 new requests: 50 in (0, 1ms], 40 in (1, 5ms], 10 above 5 ms.
	if got := histQuantile(before, after, 0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := histQuantile(before, after, 0.7); math.Abs(got-3) > 1e-9 {
		t.Errorf("p70 = %v ms, want 3", got)
	}
	if got := histQuantile(before, after, 0.99); got != 5 {
		t.Errorf("p99 in the +Inf bucket = %v ms, want the last bound 5", got)
	}
}

func TestClassifyBucketsParsesExposition(t *testing.T) {
	prom := `# TYPE ppdm_serve_http_request_duration_seconds histogram
ppdm_serve_http_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 7
ppdm_serve_http_request_duration_seconds_bucket{endpoint="classify",le="0.001"} 3
ppdm_serve_http_request_duration_seconds_bucket{endpoint="classify",le="+Inf"} 4
ppdm_serve_http_request_duration_seconds_count{endpoint="classify"} 4
`
	got, err := classifyBuckets([]byte(prom))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (bucket{0.001, 3}) || !math.IsInf(got[1].le, 1) || got[1].count != 4 {
		t.Errorf("buckets = %v", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics perfbench prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: perfbench has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: perfbench %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, perfbench %s", i, w.Name, workloads[i].name)
		}
	}
}
