package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"indexlaunch/internal/metrics"
)

// runOpts is one workload run's configuration.
type runOpts struct {
	Seed    int64
	Seconds time.Duration
	// Reps is how many times set-up runs; setup_s is their median and the
	// last set-up is the one measured.
	Reps int
	// Traced records the benchmark's spans and the per-layer counters that
	// cost time to collect.
	Traced bool
	// Dir is scratch space for the run (the serve journal and trace
	// store).
	Dir string
}

// burstLen is the length of one burst of a closed loop. circuit and
// cluster run in bursts that each end with the runtime idle (fenced, or
// every launch's results in) and begin from a collected heap, so one
// burst's in-flight state and garbage do not carry into the next. A
// burst's rate is its points over its time, the collection at its start
// and the wait at its end included; a run's throughput is the median of
// its bursts' rates, so a slow spell of the host that covers less than
// half the run does not move it.
const burstLen = time.Second

// spans returns the run's span recorder, nil when untraced.
func (o runOpts) spans(epoch time.Time) *spanRecorder {
	if !o.Traced {
		return nil
	}
	return newSpanRecorder(epoch)
}

// runResult is everything one workload run measured.
type runResult struct {
	Nodes     int
	Attempted int64
	Failed    int64
	// Failures lists the correctness checks that did not hold; Warnings
	// the conditions that invalidate some figures but no output.
	Failures []string
	Warnings []string
	// E2E holds the end-to-end metrics (and the workload's own extras);
	// Layers the per-layer ones.
	E2E    *metricSet
	Layers *metricSet
	// Notes carries workload facts for the run record.
	Notes map[string]any
	// Crash holds the first lines a crashed serve child printed.
	Crash []string

	spans   []span
	dropped int64
	wallNS  int64
}

func newRunResult(nodes int) *runResult {
	return &runResult{Nodes: nodes, E2E: newMetricSet(), Layers: newMetricSet(), Notes: map[string]any{}}
}

// check records a correctness check; it returns ok.
func (r *runResult) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *runResult) correct() bool { return len(r.Failures) == 0 && r.Failed == 0 }

func (r *runResult) finishSpans(sp *spanRecorder, wall time.Duration) {
	r.wallNS = wall.Nanoseconds()
	if sp != nil {
		r.spans, r.dropped = sp.snapshot()
	}
}

// stageSums reads the runtime's per-stage latency histogram sums
// (idx_stage_latency_ns, in ns) from reg; nil when reg is nil.
func stageSums(reg *metrics.Registry) map[string]int64 {
	if reg == nil {
		return nil
	}
	out := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if f.Name != "idx_stage_latency_ns" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == "stage" {
					out[l.Value] += s.Sum
				}
			}
		}
	}
	return out
}

// stageMetricStages are the stages reported per point: the issuance side
// of the pipeline, which index launches are meant to make cheap.
var stageMetricStages = []string{"issue", "logical", "distribute", "physical"}

// setStageMetrics reports each issuance-side stage's time per point
// between two stageSums snapshots. Nothing is set when the runtime had no
// registry (untraced runs).
func setStageMetrics(m *metricSet, before, after map[string]int64, points float64) {
	if after == nil {
		return
	}
	for _, st := range stageMetricStages {
		m.set("rt.stage_"+st+"_ns_per_point", ratio(float64(after[st]-before[st]), points), "ns", 1)
	}
}

// benchE2E are the end-to-end metrics the workloads in BENCHMARK.json
// report with --trace 0, and benchLayers the per-layer metrics they report
// with --trace 1: BENCHMARK.json lists exactly these. serve reports its
// own sets, named after its operations (jobs, not launches). launch_ms_p99
// is measured and recorded but not listed: on a shared two-core machine
// the socket round trips' tail moves with the host's scheduling more than
// any bound a regression check can use.
var benchE2E = []string{"setup_s", "tasks_per_s", "launch_ms_p50", "peak_rss_mb"}

var rtLayers = []string{
	"rt.issue_us_per_point",
	"rt.fence_ms",
	"rt.version_queries_per_point",
	"rt.dep_edges_per_point",
	"rt.allocs_per_point",
	"rt.alloc_bytes_per_point",
	"rt.stage_issue_ns_per_point",
	"rt.stage_logical_ns_per_point",
	"rt.stage_distribute_ns_per_point",
	"rt.stage_physical_ns_per_point",
	"safety.verify_us_per_launch",
}

var wireLayers = []string{
	"wire.frames_per_remote_point",
	"wire.bytes_per_remote_point",
	"wire.retransmits_per_1k_frames",
}

// servedLayers are the layers of the job service around the runtime.
var servedLayers = []string{
	"sched.queue_ms_p50",
	"sched.queue_ms_p99",
	"sched.body_ms_p50",
	"sched.finish_ms_p50",
	"sched.finish_ms_p99",
	"wal.appends_per_job",
	"wal.fsyncs_per_s",
	"trace.retained_per_1k_jobs",
	"trace.query_ms_p99",
	"xport.sends_per_launch",
	"xport.retransmits_per_1k_sends",
	"loadgen.late_ms_p99",
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

var benchLayers = concat(rtLayers, wireLayers, servedLayers, []string{"bench.tracing_overhead_frac"})

var serveE2E = []string{"setup_s", "tasks_per_s", "jobs_per_s", "job_ms_p50", "job_ms_p99",
	"submit_ms_p99", "read_ms_p99", "peak_rss_mb", "error_frac"}

var serveLayers = concat(rtLayers, servedLayers, []string{"bench.tracing_overhead_frac"})

// idleUnits are the units of the per-layer metrics of layers a workload
// may not run at all: circuit opens no sockets and neither circuit nor
// cluster goes through the job service. Such a workload reports them as
// 0, the work its idle layer did.
var idleUnits = map[string]string{
	"wire.frames_per_remote_point":   "count",
	"wire.bytes_per_remote_point":    "B",
	"wire.retransmits_per_1k_frames": "count",
	"sched.queue_ms_p50":             "ms",
	"sched.queue_ms_p99":             "ms",
	"sched.body_ms_p50":              "ms",
	"sched.finish_ms_p50":            "ms",
	"sched.finish_ms_p99":            "ms",
	"wal.appends_per_job":            "count",
	"wal.fsyncs_per_s":               "1/s",
	"trace.retained_per_1k_jobs":     "count",
	"trace.query_ms_p99":             "ms",
	"xport.sends_per_launch":         "count",
	"xport.retransmits_per_1k_sends": "count",
	"loadgen.late_ms_p99":            "ms",
}

// pick returns the named metrics from m that the run produced, and an
// error naming the ones it could not.
func pick(m *metricSet, names []string, idle []string) (map[string]metric, error) {
	out := map[string]metric{}
	var missing []string
	for _, n := range names {
		v, ok := m.vals[n]
		if unit, known := idleUnits[n]; !ok && known && slices.Contains(idle, layerOf(n)) {
			v, ok = metric{Unit: unit}, true
		}
		if !ok {
			why := m.errs[n]
			if why == "" {
				why = "not measured"
			}
			missing = append(missing, n+": "+why)
			continue
		}
		out[n] = v
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("missing metrics: %s", strings.Join(missing, "; "))
	}
	return out, nil
}
