package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// serve workload starts its child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == serveChildArg {
		if err := serveChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// inputs renders every generated input of a seed: the serve schedule and
// closed-loop mix, the cluster launch sizes and the circuit graph.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, op := range serveSchedule(seed, 2*time.Second) {
		fmt.Fprintf(&b, "%v %d %+v %d\n", op.Kind, op.Due, op.Job, op.Pick)
	}
	jobs := newJobGen(seed, "serve/closed-mix")
	cl := newClusterGen(seed)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%+v %+v\n", jobs.next(), cl.next())
	}
	c, err := circuit.Build(circuitParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	in := region.MustFieldI64(c.Wires.Root(), circuit.FieldInNode)
	out := region.MustFieldI64(c.Wires.Root(), circuit.FieldOutNode)
	c.Wires.Root().Domain.Each(func(p domain.Point) bool {
		fmt.Fprintf(&b, "%d>%d ", in.Get(p), out.Get(p))
		return true
	})
	return b.Bytes()
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
	sched := serveSchedule(7, 10*time.Second)
	posts := 0
	for _, op := range sched {
		if op.Kind == opPost {
			posts++
		}
	}
	if posts < 2700 || posts > 3300 {
		t.Fatalf("10s of Poisson arrivals at %v/s gave %d submissions", servePostRate, posts)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := percentile(samples, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	samples = append(samples, 1000)
	v, err := percentile(samples, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(samples[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(samples[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100): children a [10,40) and b [30,60) overlap, so they cover
	// 50; c [90,120) runs past the root, covering 10 of it. a has a child
	// [15,20).
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rt.issue", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "rt.issue", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "wire.exec", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "safety.verify", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench.op":      100 - 50 - 10,
		"rt.issue":      (30 - 5) + 30,
		"wire.exec":     30,
		"safety.verify": 5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSpansRoundTripThroughObsProfile(t *testing.T) {
	epoch := time.Now()
	sp := newSpanRecorder(epoch)
	root := sp.newID()
	sp.add(0, root, 1, "rt.issue", 0, epoch.Add(time.Millisecond), epoch.Add(2*time.Millisecond))
	sp.add(root, 0, 1, "bench.launch", 0, epoch, epoch.Add(3*time.Millisecond))
	spans, dropped := sp.snapshot()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := profile("perfbench-test", 1, spans, dropped, 3e6).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 || p.Events[0].Task != "bench.launch" || p.Events[1].Stage != obs.StageIssue ||
		p.Events[1].Parent != p.Events[0].Span {
		t.Fatalf("round-tripped events %+v", p.Events)
	}
}

// TestBenchmarkJSONMatchesMetricNames keeps BENCHMARK.json's workloads and
// metric lists in step with what the program prints.
func TestBenchmarkJSONMatchesMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, w := range names(spec.Workloads) {
		wl, ok := workloads[w]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not runnable", w)
		}
		if !reflect.DeepEqual(wl.e2e, names(spec.EndToEnd)) || !reflect.DeepEqual(wl.layers, names(spec.PerLayer)) {
			t.Fatalf("workload %q prints %v / %v, BENCHMARK.json lists %v / %v",
				w, wl.e2e, wl.layers, names(spec.EndToEnd), names(spec.PerLayer))
		}
	}
}

// TestStepLaunchesMatchAppStep keeps the circuit workload's copy of a
// timestep in step with circuit.App.Step: the same number of steps issued
// either way does the same analysis work and ends at the same voltages.
func TestStepLaunchesMatchAppStep(t *testing.T) {
	const steps = 3
	run := func(viaApp bool) (*circuit.Circuit, rt.Stats) {
		c, err := circuit.Build(circuitParams(5))
		if err != nil {
			t.Fatal(err)
		}
		r, err := rt.New(rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Shutdown()
		app := circuit.NewApp(c, r)
		launches := stepLaunches(app)
		for i := 0; i < steps; i++ {
			if viaApp {
				err = app.Step()
			} else {
				for _, l := range launches {
					if _, err = r.ExecuteIndex(l); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := r.FenceErr(); err != nil {
			t.Fatal(err)
		}
		return c, r.Stats()
	}
	ca, sa := run(true)
	cb, sb := run(false)
	type counts struct{ Launches, Indexed, Expanded, Tasks, Queries, Edges int64 }
	count := func(s rt.Stats) counts {
		return counts{s.LaunchCalls, s.IndexLaunched, s.Expanded, s.TasksExecuted, s.VersionQueries, s.DepEdges}
	}
	if a, b := count(sa), count(sb); a != b {
		t.Errorf("App.Step counts %+v, stepLaunches counts %+v", a, b)
	}
	if d := maxVoltageDiff(ca, cb); d > circuitTolerance {
		t.Errorf("voltages differ by %g after %d steps", d, steps)
	}
}

func smokeOpts(t *testing.T, traced bool) runOpts {
	return runOpts{Seed: 3, Seconds: 400 * time.Millisecond, Reps: 2, Traced: traced, Dir: t.TempDir()}
}

func TestSmokeCircuit(t *testing.T) {
	res, err := runCircuit(smokeOpts(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.Attempted == 0 {
		t.Fatalf("circuit smoke: attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range []string{"setup_s", "tasks_per_s", "peak_rss_mb"} {
		if v := res.E2E.vals[m].Value; !(v > 0) {
			t.Errorf("%s = %v", m, v)
		}
	}
	if v := res.Layers.vals["rt.stage_physical_ns_per_point"].Value; !(v > 0) {
		t.Errorf("traced circuit run reports physical stage %v ns/point", v)
	}
	if len(res.spans) == 0 {
		t.Error("traced circuit run recorded no spans")
	}
}

func TestSmokeCluster(t *testing.T) {
	res, err := runCluster(smokeOpts(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.Attempted == 0 {
		t.Fatalf("cluster smoke: attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range []string{"wire.frames_per_remote_point", "wire.bytes_per_remote_point", "rt.issue_us_per_point"} {
		if v := res.Layers.vals[m].Value; !(v > 0) {
			t.Errorf("%s = %v", m, v)
		}
	}
	if _, ok := res.Layers.vals["wire.worker_body_us_p50"]; !ok {
		t.Errorf("no worker body time: %v", res.Layers.errs)
	}
}

// TestSmokeServe runs the service child briefly. The service can crash on
// the transport recycle race (a known defect); the benchmark must then
// finish the run, count the lost operations as failed and keep the
// child's panic, which is what this test checks in that case.
func TestSmokeServe(t *testing.T) {
	o := smokeOpts(t, true)
	o.Seconds = time.Second
	res, err := runServe(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted < serveWarmupJobs {
		t.Fatalf("serve smoke attempted only %d operations", res.Attempted)
	}
	if len(res.Crash) > 0 {
		if res.Failed == 0 || res.correct() || !strings.Contains(strings.Join(res.Crash, "\n"), "panic") {
			t.Fatalf("crashed child not reported as failure: failed %d, crash %q", res.Failed, res.Crash)
		}
		t.Logf("serve child crashed (known transport recycle race), %d of %d operations failed: %s",
			res.Failed, res.Attempted, res.Crash[0])
		return
	}
	if !res.correct() {
		t.Fatalf("serve smoke: attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range []string{"sched.queue_ms_p50", "sched.body_ms_p50", "wal.appends_per_job", "rt.issue_us_per_point"} {
		if v := res.Layers.vals[m].Value; !(v > 0) {
			t.Errorf("%s = %v (%s)", m, v, res.Layers.errs[m])
		}
	}
}

// TestSmokeServeCluster runs the service child with the cluster executor
// briefly: its in-process transport is idle, so no crash is expected.
func TestSmokeServeCluster(t *testing.T) {
	o := smokeOpts(t, true)
	o.Seconds = time.Second
	res, err := runServe(o, clusterWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.Attempted < serveWarmupJobs {
		t.Fatalf("serve_cluster smoke: attempted %d failed %d: %v %q", res.Attempted, res.Failed, res.Failures, res.Crash)
	}
	for _, m := range []string{"sched.queue_ms_p50", "wal.appends_per_job", "wire.frames_per_remote_point", "rt.issue_us_per_point"} {
		if v := res.Layers.vals[m].Value; !(v > 0) {
			t.Errorf("%s = %v (%s)", m, v, res.Layers.errs[m])
		}
	}
	if v := res.Layers.vals["xport.sends_per_launch"].Value; v != 0 {
		t.Errorf("xport.sends_per_launch = %v with the cluster executor", v)
	}
	if _, ok := res.E2E.vals["launch_ms_p50"]; !ok {
		t.Errorf("no launch_ms_p50: %v", res.E2E.errs)
	}
}
