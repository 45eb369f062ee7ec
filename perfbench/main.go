// Command perfbench is the repository's benchmark: it runs the paths a user
// of ppdm runs — file-fed decision-tree and naive-Bayes training, tx-file
// mining, and a ppdm-serve /classify server under load — on generated
// inputs, checks every output, and prints end-to-end metrics (untraced
// runs) or per-layer metrics (traced runs).
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload train-tree --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it record the
// run's environment and each metric under the name of the user path it
// measures. See README.md for the workloads and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median of their CPU times, and the last set-up is the one measured.
const setupReps = 3

// bench is one set-up workload.
type bench interface {
	// expect computes the reference outputs the checks compare against.
	// It runs once per run, after set-up and untimed.
	expect() error
	// measure runs the workload for d and checks every output. tr is nil
	// in untraced runs.
	measure(d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// workload names a set-up function; BENCHMARK.json and README.md say why
// each workload exists.
type workload struct {
	name    string
	prepare func(dir string, seed uint64) (bench, error)
}

var workloads = []workload{
	{"train-tree", prepareTrainTree},
	{"train-nb", prepareTrainNB},
	{"mine", prepareMine},
	{"serve", prepareServe},
}

// outcome is what a measured run produced.
type outcome struct {
	attempted, failed int
	// items is the work the measured operations did (records,
	// transactions or answered requests), busy the wall-clock time they
	// took and cpu the process's CPU time meanwhile.
	items float64
	busy  time.Duration
	cpu   time.Duration
	// latMS holds the samples op_p50_ms is the median of, in
	// milliseconds: the CPU time of each operation, or the latency of
	// each idle-phase request on the serve workload. wallMS holds the
	// operations' wall-clock times.
	latMS  []float64
	wallMS []float64
	// quality is the workload's model or mining quality (see README.md).
	quality float64
	// heapMB holds peak live-heap samples, one per operation or per
	// second of a serving phase.
	heapMB []float64
	// named are the user-path metrics printed before the JSON line.
	named []named
	// Traced runs: per-layer metrics, CPU profiles and the number of
	// traced operations.
	layers    map[string]float64
	profiles  [][]byte
	tracedOps int
}

// named is a metric reported under its user-path name, with its sample
// count.
type named struct {
	name  string
	value float64
	unit  string
	n     int
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the untraced runs' metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"items_per_cpu_s", "1/cpu-s"},
	{"op_p50_ms", "ms"},
	{"quality", "frac"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the traced runs' metrics, reported by every workload (0
// where the workload does not run the layer).
var perLayer = []metricDef{
	{"stream.decode_s", "s"},
	{"stream.decode_mb_per_s", "MB/s"},
	{"core.train_s", "s"},
	{"core.save_s", "s"},
	{"core.model_kb", "KiB"},
	{"core.spill_peak_mb", "MiB"},
	{"bayes.train_s", "s"},
	{"reconstruct.cache_hit_frac", "frac"},
	{"assoc.read_s", "s"},
	{"assoc.rread_s", "s"},
	{"assoc.index_s", "s"},
	{"assoc.count_s", "s"},
	{"assoc.rcount_s", "s"},
	{"assoc.itemsets", "count"},
	{"assoc.ritemsets", "count"},
	{"serve.server_p50_ms.idle", "ms"},
	{"serve.server_p50_ms.busy", "ms"},
	{"serve.server_p99_ms.idle", "ms"},
	{"serve.server_p99_ms.busy", "ms"},
	{"serve.batch_records_mean.idle", "count"},
	{"serve.batch_records_mean.busy", "count"},
	{"serve.cache_hit_frac.idle", "frac"},
	{"serve.cache_hit_frac.busy", "frac"},
	{"serve.rejects.idle", "count"},
	{"serve.rejects.busy", "count"},
	{"loadgen.late_ms_max.idle", "ms"},
	{"loadgen.late_ms_max.busy", "ms"},
	{"loadgen.late_frac.idle", "frac"},
	{"loadgen.late_frac.busy", "frac"},
	{"cpu.stream.csv", "frac"},
	{"cpu.stream.segment", "frac"},
	{"cpu.core", "frac"},
	{"cpu.tree", "frac"},
	{"cpu.bayes", "frac"},
	{"cpu.reconstruct.collector", "frac"},
	{"cpu.reconstruct", "frac"},
	{"cpu.assoc", "frac"},
	{"cpu.serve", "frac"},
	{"cpu.nethttp", "frac"},
	{"cpu.bench", "frac"},
	{"cpu.gc", "frac"},
	{"gc.alloc_mb", "MiB"},
	{"op.wall_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unaccounted_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 16, "how long the run measures, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	root := flag.String("root", ".", "repository root; the run works under <root>/.bench_build")
	commit := flag.String("commit", "none", "commit the library was built from, for the environment record")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload %s --seed <n> --seconds <s> --trace <0|1>", workloadNames())
		return 2
	}
	res, err := runWorkload(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, *commit)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func runWorkload(w workload, seed uint64, d time.Duration, traced bool, root, commit string) (*result, error) {
	env := environment(commit)
	env["workload"] = w.name
	env["seed"] = fmt.Sprint(seed)
	printEnv(env)

	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		b                  bench
		setups, setupWalls []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0, c0 := time.Now(), cpuTime()
		var err error
		if b, err = w.prepare(work, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}
	defer b.close()
	t0 := time.Now()
	if err := b.expect(); err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	logf("set-up %.2fs CPU, %.2fs wall (medians of %d), reference outputs %.2fs",
		median(setups), median(setupWalls), setupReps, time.Since(t0).Seconds())

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	steal0, total0 := hostTicks()
	out, err := b.measure(d, tr)
	if err != nil {
		return nil, err
	}
	steal1, total1 := hostTicks()
	// The share of the machine's CPU time its host gave to other tenants
	// while the run measured: wall-clock figures are only comparable
	// between runs with similar shares.
	fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", "host.steal_frac", ratio(float64(steal1-steal0), float64(total1-total0)), "frac", total1-total0)
	if out.attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		v := map[string]float64{
			"setup_s":         median(setups),
			"ok_frac":         1 - ratio(float64(out.failed), float64(out.attempted)),
			"items_per_cpu_s": ratio(out.items, out.cpu.Seconds()),
			"op_p50_ms":       median(out.latMS),
			"quality":         out.quality,
			"peak_heap_mb":    median(out.heapMB),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		}
		fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", "setup_s", v["setup_s"], "cpu-s", len(setups))
		fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", "setup_wall_s", median(setupWalls), "s", len(setupWalls))
		fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", "error_rate", 1-v["ok_frac"], "frac", out.attempted)
		for _, m := range out.named {
			fmt.Printf("metric %-28s %12.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		}
		return res, nil
	}

	if err := addCPUShares(out); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := writeSpans(path, env, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	for _, m := range perLayer {
		v := out.layers[m.name]
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Printf("layer %-28s %12.4f %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// addCPUShares attributes the traced operations' CPU samples to layers.
func addCPUShares(out *outcome) error {
	merged := &cpuProfile{}
	for _, raw := range out.profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return err
		}
		merged.stacks = append(merged.stacks, p.stacks...)
		merged.counts = append(merged.counts, p.counts...)
	}
	shares, gc := cpuShares(merged)
	for layer, share := range shares {
		out.layers["cpu."+layer] = share
	}
	out.layers["cpu.gc"] = gc
	return nil
}

// perOp returns the spans' summed total and self times per name, in
// seconds per traced operation.
func perOp(spans []span, ops int) (total, self map[string]float64) {
	tot, slf := layerTimes(spans)
	total, self = map[string]float64{}, map[string]float64{}
	for k, v := range tot {
		total[k] = ratio(v.Seconds(), float64(ops))
	}
	for k, v := range slf {
		self[k] = ratio(v.Seconds(), float64(ops))
	}
	return total, self
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// environment records what a result depends on besides the code: the
// processor, the core count the Go runtime uses, the toolchain, and the
// commit the library was built from.
func environment(commit string) map[string]string {
	return map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func printEnv(env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %s=%s\n", k, env[k])
	}
}

// cpuModel returns the processor's model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
