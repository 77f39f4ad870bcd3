// Command perfbench is the repository's benchmark. It measures PERCIVAL
// end to end on three seeded workloads and, in a separate traced run, layer
// by layer from spans it records around its own calls into each layer:
//
//	browse_sync     in-process page renders with PERCIVAL in the raster path
//	serve_rotation  percival-serve fed a small pool of creatives that repeat
//	fleet_cold      a percival-serve front fanning unique creatives out to
//	                two peer daemons
//
// Run it through run.sh from the repository root, which builds this
// package and the daemon first:
//
//	bash perfbench/run.sh --workload browse_sync --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and the
// spans plus their per-layer self times are written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables below
// are the ones BENCHMARK.json lists; --smoke checks that they agree.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// nnGroups are the network's layers as the per-layer rows time them:
// conv1 with its fused ReLU, dropout (a no-op at inference) with the
// classifier conv.
var nnGroups = []struct {
	name   string
	layers []string
}{
	{"conv1", []string{"conv1", "relu1"}},
	{"maxpool1", []string{"maxpool1"}},
	{"fire1", []string{"fire1"}},
	{"fire2", []string{"fire2"}},
	{"maxpool2", []string{"maxpool2"}},
	{"fire3", []string{"fire3"}},
	{"fire4", []string{"fire4"}},
	{"maxpool3", []string{"maxpool3"}},
	{"fire5", []string{"fire5"}},
	{"fire6", []string{"fire6"}},
	{"conv_final", []string{"dropout", "conv_final"}},
	{"gap", []string{"gap"}},
}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		// the latency tail does not repeat within 0.25 of its median over
		// ten seeds on a shared 2-vCPU VM, so it is reported, not gated
		{"latency_p90_ms", "ms"},
		{"browser.page_self_ms", "ms"},
		{"raster.inspects_per_page", "count"},
		{"browser.render_overhead_pct", "%"},
		{"core.inspect_ms", "ms"},
		{"core.inspect_busy_share", "ratio"},
		{"core.frames_inspected", "count"},
		{"edge.http_overhead_ms", "ms"},
		{"imaging.decode_ms", "ms"},
		{"imaging.hash_ms", "ms"},
		{"imaging.resize_ms", "ms"},
		{"serve.submit_ms", "ms"},
		{"serve.self_ms", "ms"},
		{"serve.submitted", "count"},
		{"serve.cache_hits", "count"},
		{"serve.coalesced", "count"},
		{"serve.classified", "count"},
		{"serve.batches", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.coalesced_ratio", "ratio"},
		{"serve.batch_fill_mean", "count"},
		{"serve.shed", "count"},
		{"engine.infer_batch_ms", "ms"},
		{"engine.frames_per_batch", "count"},
		{"engine.errors", "count"},
		{"engine.fleet_dispatch_ms", "ms"},
		{"engine.wire_bytes_per_frame", "bytes"},
		{"engine.dedup_ratio", "ratio"},
		{"engine.hedges", "count"},
		{"engine.fallbacks", "count"},
		{"wire.probe_hits", "count"},
		{"wire.bytes", "bytes"},
	}
	for _, g := range nnGroups {
		m = append(m,
			metricSpec{"nn." + g.name + "_ms", "ms"},
			metricSpec{"nn." + g.name + "_share", "ratio"},
			metricSpec{"nn." + g.name + "_gflops", "GFLOP/s"})
	}
	return append(m,
		metricSpec{"nn.frame_ms_b1", "ms"},
		metricSpec{"nn.frame_ms_b16", "ms"},
		metricSpec{"nn.allocs_per_frame_fp32", "count"},
		metricSpec{"nn.allocs_per_frame_int8", "count"},
		metricSpec{"tensor.gemm_stem_gflops", "GFLOP/s"},
		metricSpec{"tensor.qgemm_stem_ms", "ms"},
		metricSpec{"tensor.maxpool_stem_ms", "ms"},
		metricSpec{"trace.overhead_pct", "%"},
		metricSpec{"load.send_delay_p90_ms", "ms"},
		metricSpec{"load.send_delay_max_ms", "ms"},
		metricSpec{"host.steal_share", "ratio"},
	)
}()

// runCtx carries one run's arguments.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	dir      string      // this run's output directory
	clock    *stealClock // corrects timings for hypervisor steal
}

// report accumulates one run's counts, metrics, failed operations and
// correctness problems.
type report struct {
	attempted, failed int64
	values            map[string]float64
	failures          []string // the first few failed operations
	problems          []string
	details           map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts a failed operation: an error, a refusal or a wrong answer.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// problem records an incorrect output or a workload that did not exercise
// what it claims: the run reports correct=false.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the metrics the run prints. A per-layer metric of a layer
// the workload does not reach stays 0; an end-to-end metric must be set.
func (r *report) result(trace bool) (result, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.attempted > r.failed,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

var workloads = map[string]func(*runCtx) (*report, error){
	"browse_sync":    runBrowse,
	"serve_rotation": func(rc *runCtx) (*report, error) { return runServe(rc, serveRotation) },
	"fleet_cold":     func(rc *runCtx) (*report, error) { return runServe(rc, fleetCold) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics, 0 prints the end-to-end ones")
		serveBin = flag.String("serve-bin", "", "percival-serve binary (run.sh builds it)")
		out      = flag.String("out", ".bench_build/perfbench-runs", "directory for run reports and spans")
		smoke    = flag.Bool("smoke", false, "run every workload briefly, traced and untraced, and check the metric names against BENCHMARK.json")
	)
	flag.Parse()
	go stopOnSignal()

	if *smoke {
		if err := runSmoke(*serveBin, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench smoke: every workload ran, every metric printed with its unit, correctness held")
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rc := &runCtx{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		serveBin: *serveBin,
		dir:      filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)),
	}
	res, err := measure(rc, run)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs one workload, stamps it, writes its report under rc.dir
// and returns the result line.
func measure(rc *runCtx, run func(*runCtx) (*report, error)) (result, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return result{}, err
	}
	rc.clock = startStealClock()
	start := time.Now()
	rep, err := run(rc)
	rc.clock.close()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", rc.workload, err)
	}
	st := newStamp()
	st.StealShare = rc.clock.share(start, time.Now())
	rep.set("host.steal_share", st.StealShare)
	res, err := rep.result(rc.trace)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", rc.workload, err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	full := map[string]any{
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.trace,
		"stamp": st, "result": res, "all_metrics": rep.values, "problems": rep.problems,
		"failures": rep.failures, "details": rep.details,
	}
	if err := writeJSON(filepath.Join(rc.dir, "report.json"), full); err != nil {
		return result{}, err
	}
	stampLine, _ := json.Marshal(map[string]any{"stamp": st, "problems": rep.problems, "failures": rep.failures})
	fmt.Println(string(stampLine))
	return res, nil
}

func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
	os.Exit(1)
}
