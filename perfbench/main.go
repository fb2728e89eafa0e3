// Command perfbench is the repository's benchmark: it drives the runtime,
// the job service and the socket transport through their public functions
// on four seeded workloads, checks every output, and prints each metric
// by name with its unit and sample count. The last stdout line is one JSON
// object: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1.
//
//	go build -o perfbench . && ./perfbench -workload circuit -seed 1 -seconds 30 -trace 0
//
// Workloads:
//
//	circuit  the paper's Circuit app on one DCR runtime; issue-bound, so
//	         the runtime's per-point analysis cost dominates
//	serve    the job service over loopback HTTP in a child process: open
//	         loop of Poisson arrivals with reads beside them, then a closed
//	         loop; admission, journal, tracing and transport do the work
//	cluster  region-free launches executed on two worker meshes over
//	         localhost TCP; frame encoding and the Exec round trip dominate
//	serve_cluster
//	         serve with the executor of idxserve -cluster: one node-0
//	         runtime sending remote points to two worker meshes over TCP,
//	         so the in-process transport stays idle
//
// A traced run (-trace 1) runs the workload twice on the same seed,
// untraced then traced: per-layer metrics come from the traced run, and the
// throughput difference is the tracing overhead. Its spans are written as
// an obs profile that idxprof renders.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one runnable workload, the metric names its result line
// carries, and the layers it does not run.
type workload struct {
	run         func(runOpts) (*runResult, error)
	e2e, layers []string
	idle        []string
}

var workloads = map[string]workload{
	"circuit": {runCircuit, benchE2E, benchLayers, []string{"wire", "sched", "wal", "trace", "xport", "loadgen"}},
	"cluster": {runCluster, benchE2E, benchLayers, []string{"sched", "wal", "trace", "xport", "loadgen"}},
	"serve_cluster": {func(o runOpts) (*runResult, error) { return runServe(o, clusterWorkers) },
		benchE2E, benchLayers, nil},
	"serve": {func(o runOpts) (*runResult, error) { return runServe(o, 0) },
		serveE2E, serveLayers, nil},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == serveChildArg {
		if err := serveChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve child:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "circuit | cluster | serve_cluster | serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run records, spans and scratch files")
	commit := flag.String("commit", "unknown", "source revision recorded in the run record")
	buildS := flag.Float64("build-s", 0, "build time recorded in the run record")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload circuit|cluster|serve_cluster|serve, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if err := bench(*workload, w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *out, *commit, *buildS); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(name string, w workload, seed int64, secs time.Duration, traced bool, out, commit string, buildS float64) error {
	scratch, err := os.MkdirTemp(mustMkdir(filepath.Join(out, "tmp")), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	o := runOpts{Seed: seed, Seconds: secs, Reps: 11, Dir: scratch}

	var res, base *runResult
	if traced {
		o.Reps = 1
		if base, err = w.run(o); err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		o.Traced = true
	}
	if res, err = w.run(o); err != nil {
		return err
	}

	rec := newRecord(name, seed, secs, traced, commit, buildS)
	attempted, failed, correct := res.Attempted, res.Failed, res.correct()
	if traced {
		attempted += base.Attempted
		failed += base.Failed
		correct = correct && base.correct()
		rec.Base = base.summary()
		b, t := base.E2E.vals["tasks_per_s"].Value, res.E2E.vals["tasks_per_s"].Value
		res.Layers.set("bench.tracing_overhead_frac", ratio(b, t)-1, "ratio", 2)
		rec.SelfMS = map[string]float64{}
		for span, ns := range selfTimes(res.spans) {
			rec.SelfMS[span] = float64(ns) / 1e6
		}
		prof := profile("perfbench-"+name, res.Nodes, res.spans, res.dropped, res.wallNS)
		path := filepath.Join(mustMkdir(filepath.Join(out, "spans")), fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := prof.WriteFile(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rec.SpansFile, rec.Spans, rec.SpansDropped = path, len(res.spans), res.dropped
	}
	// A run that failed (a wrong result, a crashed serve child) still
	// reports what it measured; a correct run that cannot produce a
	// metric is a broken benchmark.
	src, names := res.E2E, w.e2e
	if traced {
		src, names = res.Layers, w.layers
	}
	rec.Result = res.summary()
	if err := rec.write(filepath.Join(mustMkdir(filepath.Join(out, "records")), fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, b2i(traced)))); err != nil {
		return err
	}
	rec.print(os.Stdout)
	reported, missing := pick(src, names, w.idle)
	if missing != nil && correct {
		return missing
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, map[string]jsonMetric{}}
	for n, m := range reported {
		final.Metrics[n] = jsonMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// runSummary is the run record's copy of one pass.
type runSummary struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	ErrorFrac float64           `json:"error_frac"`
	Failures  []string          `json:"failures,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	E2E       map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`
	Refused   map[string]string `json:"refused,omitempty"`
	Notes     map[string]any    `json:"notes,omitempty"`
	Crash     []string          `json:"crash,omitempty"`
}

func (r *runResult) summary() *runSummary {
	refused := map[string]string{}
	for _, m := range []*metricSet{r.E2E, r.Layers} {
		for n, e := range m.errs {
			refused[n] = e
		}
	}
	return &runSummary{
		Attempted: r.Attempted, Failed: r.Failed,
		ErrorFrac: ratio(float64(r.Failed), float64(r.Attempted)),
		Failures:  r.Failures, Warnings: r.Warnings, E2E: r.E2E.vals, Layers: r.Layers.vals,
		Refused: refused, Notes: r.Notes, Crash: r.Crash,
	}
}

// record is the run record: the seed, the machine, the source revision,
// every metric with its sample count, and the traced pass's extras.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Traced       bool               `json:"traced"`
	Env          map[string]any     `json:"env"`
	Result       *runSummary        `json:"result"`
	Base         *runSummary        `json:"untraced_pass,omitempty"`
	SelfMS       map[string]float64 `json:"self_ms_by_span,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
	Spans        int                `json:"spans,omitempty"`
	SpansDropped int64              `json:"spans_dropped,omitempty"`
}

func newRecord(name string, seed int64, secs time.Duration, traced bool, commit string, buildS float64) *record {
	return &record{
		Workload: name, Seed: seed, Seconds: secs.Seconds(), Traced: traced,
		Env: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model":  cpuModel(),
			"go_version": runtime.Version(),
			"commit":     commit,
			"build_s":    buildS,
		},
	}
}

func (rec *record) write(path string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print renders the human-readable report: every metric with its unit
// and sample count, the per-layer table with self times and tracing
// overhead on a traced run, and the failures.
func (rec *record) print(w *os.File) {
	r := rec.Result
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g traced=%v  nproc=%v gomaxprocs=%v cpu=%q go=%v commit=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Env["nproc"], rec.Env["gomaxprocs"],
		rec.Env["cpu_model"], rec.Env["go_version"], rec.Env["commit"])
	table := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# %s\n", title)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(w, "#   %-34s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	table("end-to-end", r.E2E)
	if rec.Traced {
		table("per-layer", r.Layers)
		layers := map[string]float64{}
		names := make([]string, 0, len(rec.SelfMS))
		for n, v := range rec.SelfMS {
			names = append(names, n)
			layers[layerOf(n)] += v
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# self time by layer, summed over concurrent spans (traced pass, %d spans, %d dropped)\n", rec.Spans, rec.SpansDropped)
		for i, n := range names {
			if l := layerOf(n); i == 0 || l != layerOf(names[i-1]) {
				fmt.Fprintf(w, "#   %-20s %12.3f ms\n", l, layers[l])
			}
			fmt.Fprintf(w, "#     %-18s %12.3f ms\n", n, rec.SelfMS[n])
		}
		if o, ok := r.Layers["bench.tracing_overhead_frac"]; ok {
			fmt.Fprintf(w, "# tracing overhead: %+.1f%% tasks_per_s (untraced %.6g, traced %.6g)\n",
				100*o.Value, rec.Base.E2E["tasks_per_s"].Value, r.E2E["tasks_per_s"].Value)
		}
		fmt.Fprintf(w, "# spans: %s\n", rec.SpansFile)
	}
	for n, why := range r.Refused {
		fmt.Fprintf(w, "# refused %s: %s\n", n, why)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d error_frac=%.6g\n", r.Attempted, r.Failed, r.ErrorFrac)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", f)
	}
	for _, f := range r.Warnings {
		fmt.Fprintf(w, "# WARNING: %s\n", f)
	}
	for _, l := range r.Crash {
		fmt.Fprintf(w, "# crash: %s\n", l)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
