package rt

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// Stats is a read-through view over the metrics registry — there is no
// second bookkeeping path. These tests pin that down: every Stats field must
// equal the registry's value for its family, with and without a
// caller-provided registry.

// registryValue reads an unlabeled counter or gauge from a gathered
// registry, failing the test when the family is missing.
func registryValue(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	for _, f := range reg.Gather().Families {
		if f.Name == name && len(f.Series) == 1 && len(f.Series[0].Labels) == 0 {
			return f.Series[0].Value
		}
	}
	t.Fatalf("registry has no unlabeled family %s", name)
	return 0
}

func runMetricsWorkload(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	r := MustNew(cfg)
	tid := r.MustRegisterTask("inc", incrementTask)
	_, p := lineSetup(t, 100, 10)
	launch := core.MustForall("inc", tid, domain.Range1(0, 9), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	for i := 0; i < 3; i++ {
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	return r
}

func TestStatsReadsThroughRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	r := runMetricsWorkload(t, Config{
		Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, Metrics: reg,
	})
	if r.Metrics() != reg {
		t.Fatal("Runtime.Metrics() is not the configured registry")
	}
	st := r.Stats()
	vals := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if f.Type == metrics.TypeCounter.String() || f.Type == metrics.TypeGauge.String() {
			if len(f.Series) == 1 && len(f.Series[0].Labels) == 0 {
				vals[f.Name] = f.Series[0].Value
			}
		}
	}
	checks := []struct {
		name string
		got  int64
	}{
		{"idx_launch_calls_total", st.LaunchCalls},
		{"idx_single_calls_total", st.SingleCalls},
		{"idx_index_launched_total", st.IndexLaunched},
		{"idx_expanded_total", st.Expanded},
		{"idx_fallbacks_total", st.Fallbacks},
		{"idx_tasks_executed_total", st.TasksExecuted},
		{"idx_tasks_failed_total", st.TasksFailed},
		{"idx_tasks_skipped_total", st.TasksSkipped},
		{"idx_retries_total", st.Retries},
		{"idx_panics_total", st.Panics},
		{"idx_node_failures_total", st.NodeFailures},
		{"idx_remapped_total", st.Remapped},
		{"idx_version_queries_total", st.VersionQueries},
		{"idx_dep_edges_total", st.DepEdges},
		{"idx_dynamic_check_evals_total", st.DynamicCheckEvals},
		{"idx_trace_captures_total", st.TraceCaptures},
		{"idx_trace_replays_total", st.TraceReplays},
		{"idx_analysis_skipped_total", st.AnalysisSkipped},
		{"xport_sends_total", st.MsgSends},
		{"xport_retransmits_total", st.MsgRetransmits},
		{"xport_drops_total", st.MsgDrops},
		{"xport_dedups_total", st.MsgDedups},
		{"xport_reparents_total", st.Reparents},
		{"xport_direct_broadcasts_total", st.DirectBroadcasts},
	}
	for _, c := range checks {
		if want, ok := vals[c.name]; !ok {
			t.Errorf("registry has no family %s", c.name)
		} else if c.got != want {
			t.Errorf("Stats.%s = %d, registry = %d", c.name, c.got, want)
		}
	}
	// The workload really moved the interesting counters.
	if st.LaunchCalls != 3 || st.IndexLaunched != 3 || st.TasksExecuted != 30 {
		t.Errorf("workload counters off: %+v", st)
	}
	// The runtime's wall-clock stage histograms populated (metrics enabled).
	hist := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if f.Name != "idx_stage_latency_ns" {
			continue
		}
		for _, s := range f.Series {
			hist[s.Labels[0].Value] = s.Count
		}
	}
	for _, stage := range []string{"issue", "logical", "distribute", "physical", "execute"} {
		if hist[stage] == 0 {
			t.Errorf("stage %s latency histogram empty with metrics enabled", stage)
		}
	}
	if ff := reg.Gather(); len(ff.Families) == 0 {
		t.Fatal("empty gather")
	}
}

// Without a configured registry the runtime still counts (Stats works) in a
// private registry, but does not take stage timing observations — that is
// the disabled-clock state.
func TestStatsWorksWithoutConfiguredRegistry(t *testing.T) {
	r := runMetricsWorkload(t, Config{
		Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
	})
	st := r.Stats()
	if st.LaunchCalls != 3 || st.TasksExecuted != 30 {
		t.Errorf("counters off without registry: %+v", st)
	}
	reg := r.Metrics()
	if reg == nil {
		t.Fatal("private registry missing")
	}
	for _, f := range reg.Gather().Families {
		if f.Name == "idx_stage_latency_ns" {
			for _, s := range f.Series {
				if s.Count != 0 {
					t.Errorf("stage %s histogram populated without Config.Metrics", s.Labels[0].Value)
				}
			}
		}
	}
}

func TestStatusSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	r := runMetricsWorkload(t, Config{
		Nodes: 4, ProcsPerNode: 2, IndexLaunches: true, Metrics: reg,
	})
	st := r.Status()
	if st.Nodes != 4 || st.ProcsPerNode != 2 || st.DCR || !st.IndexLaunches {
		t.Errorf("config echo wrong: %+v", st)
	}
	if st.LiveNodes != 4 || len(st.DeadNodes) != 0 {
		t.Errorf("liveness wrong: %+v", st)
	}
	if st.LaunchCalls != 3 || st.TasksExecuted != 30 {
		t.Errorf("progress wrong: %+v", st)
	}
	if st.InflightTasks != 0 || st.BusyProcs != 0 {
		t.Errorf("in-flight gauges nonzero after fence: %+v", st)
	}
	if st.OutstandingFence != 0 {
		t.Errorf("outstanding fence = %d after fence", st.OutstandingFence)
	}
	// Non-DCR runtimes carry a slice transport: the tree shape is served.
	if st.Tree == nil {
		t.Fatal("non-DCR status has no broadcast-tree shape")
	}
	if st.Tree.Live != 4 || st.Tree.Depth < 1 || len(st.Tree.Parents) != 4 {
		t.Errorf("tree shape wrong: %+v", st.Tree)
	}

	// DCR mode has no transport; Tree must be nil.
	dcr := runMetricsWorkload(t, Config{
		Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
	})
	if s := dcr.Status(); s.Tree != nil {
		t.Errorf("DCR status has a tree shape: %+v", s.Tree)
	}
	if !dcr.Status().DCR {
		t.Error("DCR flag not echoed")
	}
}

func TestNodeFailureShowsInStatus(t *testing.T) {
	reg := metrics.NewRegistry()
	r := MustNew(Config{
		Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, Metrics: reg,
	})
	r.KillNode(2)
	st := r.Status()
	if st.LiveNodes != 3 || len(st.DeadNodes) != 1 || st.DeadNodes[0] != 2 {
		t.Errorf("killed node not reflected: %+v", st)
	}
	if got := r.Stats().NodeFailures; got != 1 {
		t.Errorf("node failures = %d, want 1", got)
	}
}
