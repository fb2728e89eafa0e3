package rt

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// The execution layer: per-node worker pools fed by ready queues, points
// made ready by dependence counting, and the allocation budget of the
// issue path.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Points still waiting on dependences when Shutdown is called, and points
// queued for a worker, never run: they fail with ErrShutdown, which
// propagates to their dependents. Running bodies complete, every worker
// exits, and a waiting point holds no goroutine.
func TestShutdownFailsWaitingAndQueuedPoints(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := metrics.NewRegistry()
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true, Metrics: reg})
	_, part := lineSetup(t, 256, 128)
	_, other := lineSetup(t, 4, 2)
	release := make(chan struct{})
	block := r.MustRegisterTask("block", func(ctx *Context) ([]byte, error) {
		<-release
		return incrementTask(ctx)
	})
	inc := r.MustRegisterTask("inc", incrementTask)

	// One blocked point per node occupies both workers.
	fmA, err := r.ExecuteIndex(core.MustForall("a", block, domain.Range1(0, 1), identityRW(other)))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both workers busy", func() bool { return registryValue(t, reg, "idx_busy_procs") == 2 })
	// A launch of 128 points waits on the second blocked point, and a
	// second launch waits on it; two independent points queue behind the
	// blocked ones.
	fmB, err := r.ExecuteIndex(core.MustForall("b", inc, domain.Range1(0, 127), identityRW(part), core.Requirement{
		Partition: other, Functor: projection.Constant(domain.Pt1(1)), Priv: privilege.Read, Fields: []region.FieldID{fieldVal},
	}))
	if err != nil {
		t.Fatal(err)
	}
	fmC, err := r.ExecuteIndex(core.MustForall("c", inc, domain.Range1(0, 127), identityRW(part)))
	if err != nil {
		t.Fatal(err)
	}
	_, spare := lineSetup(t, 4, 2)
	fmD, err := r.ExecuteIndex(core.MustForall("d", inc, domain.Range1(0, 1), identityRW(spare)))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two queued points", func() bool { return registryValue(t, reg, "idx_ready_tasks") == 2 })
	if extra := runtime.NumGoroutine() - before; extra > 2+4 {
		t.Errorf("%d goroutines beyond the baseline with 256 points waiting; want the 2 workers and a few", extra)
	}
	if err := r.Recycle(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Recycle with queued points = %v, want ErrBusy", err)
	}

	r.Shutdown()
	// The queued points failed at once; the blocked ones still run.
	if err := fmD.WaitTimeout(5 * time.Second); !errors.Is(err, ErrShutdown) {
		t.Fatalf("queued points: %v, want ErrShutdown", err)
	}
	close(release)
	if err := fmA.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("running points must complete: %v", err)
	}
	for name, fm := range map[string]*FutureMap{"b": fmB, "c": fmC} {
		for i := range fm.pts {
			if _, err := fm.pts[i].f.GetTimeout(5 * time.Second); !errors.Is(err, ErrShutdown) {
				t.Fatalf("launch %s point %v: %v, want ErrShutdown", name, fm.pts[i].p, err)
			}
		}
	}
	for _, g := range []string{"idx_inflight_tasks", "idx_ready_tasks", "idx_busy_procs"} {
		if v := registryValue(t, reg, g); v != 0 {
			t.Errorf("%s = %d after Shutdown drained", g, v)
		}
	}
	waitFor(t, "workers to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// A discarded speculative backup can sit in a ready queue after every
// issued task has completed; Recycle must still refuse the runtime.
func TestRecycleBusyWhileBackupQueued(t *testing.T) {
	reg := metrics.NewRegistry()
	r := MustNew(Config{
		Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true, Metrics: reg,
		Speculate: SpeculationPolicy{Quantile: 0.5, Multiplier: 1, MinSamples: 4, MinDelay: 2 * time.Millisecond},
	})
	defer r.Shutdown()
	release := make(chan struct{})
	// On node 0 (where single launches map) the body takes 50 ms, past the
	// 2 ms threshold; its backup on node 1 blocks until released, so the
	// original wins and the backup holds node 1's only worker.
	slow := r.MustRegisterTask("slow", func(ctx *Context) ([]byte, error) {
		if ctx.Node == 1 {
			<-release
			return nil, nil
		}
		time.Sleep(50 * time.Millisecond)
		return nil, nil
	})
	echo := r.MustRegisterTask("echo", func(*Context) ([]byte, error) { return nil, nil })
	if _, err := r.ExecuteIndex(core.MustForall("warmup", echo, domain.Range1(0, 7))); err != nil {
		t.Fatal(err)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		fut, err := r.ExecuteSingle("slow", slow, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.GetTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the backup launch", func() bool { return r.Stats().SpecLaunched == i })
	}
	// The first backup runs (blocked) on node 1, the second is queued.
	waitFor(t, "the queued backup", func() bool { return registryValue(t, reg, "idx_ready_tasks") == 1 })
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recycle(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Recycle with a queued backup = %v, want ErrBusy", err)
	}
	close(release)
	waitFor(t, "the backups to drain", func() bool {
		return registryValue(t, reg, "idx_ready_tasks") == 0 && registryValue(t, reg, "idx_busy_procs") == 0 &&
			registryValue(t, reg, "idx_inflight_tasks") == 0
	})
	if err := r.Recycle(); err != nil {
		t.Fatalf("Recycle once drained: %v", err)
	}
	if st := r.Stats(); st.SpecWasted != 2 || st.SpecWon != 0 {
		t.Errorf("SpecWasted = %d, SpecWon = %d; want both backups discarded", st.SpecWasted, st.SpecWon)
	}
}

// idx_ready_tasks counts points queued on a node but not running, and
// rt_stray_deliveries_total counts slice deliveries matching no broadcast;
// both read from the registry.
func TestReadyAndStrayGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, IndexLaunches: true, Metrics: reg})
	defer r.Shutdown()
	release := make(chan struct{})
	block := r.MustRegisterTask("block", func(*Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	noop := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	if _, err := r.ExecuteSingle("block", block, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocker to run", func() bool { return registryValue(t, reg, "idx_busy_procs") == 1 })
	for i := 0; i < 3; i++ {
		if _, err := r.ExecuteSingle("queued", noop, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if v := registryValue(t, reg, "idx_ready_tasks"); v != 3 {
		t.Errorf("idx_ready_tasks = %d behind a busy worker, want 3", v)
	}
	close(release)
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if v := registryValue(t, reg, "idx_ready_tasks"); v != 0 {
		t.Errorf("idx_ready_tasks = %d after a fence, want 0", v)
	}

	// A real launch ships slices with no stray; a delivery outside any
	// broadcast is one.
	if _, err := r.ExecuteIndex(core.MustForall("spread", noop, domain.Range1(0, 7))); err != nil {
		t.Fatal(err)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if v := registryValue(t, reg, "rt_stray_deliveries_total"); v != 0 {
		t.Errorf("rt_stray_deliveries_total = %d after clean launches", v)
	}
	r.deliverSlice(1, "late", encodeClusterPayload(sliceMsg{idx: 0, s: Slice{Domain: domain.Range1(0, 3), Node: 1}}))
	if v := registryValue(t, reg, "rt_stray_deliveries_total"); v != 1 {
		t.Errorf("rt_stray_deliveries_total = %d after one stray, want 1", v)
	}
}

// issueAllocsPerPointBudget is the allocation budget of one point of a
// fenced 256-point DCR launch (issue, analysis, execution and fence).
// Tighten it when the issue path gets leaner; never raise it.
const issueAllocsPerPointBudget = 2.2

// TestIssueAllocsPerPoint gates allocations on the issue → execute path:
// a fixed 256-point DCR launch of a no-op task with one ReadWrite and one
// Read requirement, identity functors, fenced.
func TestIssueAllocsPerPoint(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	noop := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	_, rw := lineSetup(t, 1024, 256)
	_, ro := lineSetup(t, 1024, 256)
	launch := core.MustForall("allocs", noop, domain.Range1(0, 255), identityRW(rw), core.Requirement{
		Partition: ro, Functor: projection.Identity(1), Priv: privilege.Read, Fields: []region.FieldID{fieldVal},
	})
	perLaunch := testing.AllocsPerRun(50, func() {
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
		if err := r.FenceErr(); err != nil {
			t.Fatal(err)
		}
	})
	perPoint := perLaunch / 256
	t.Logf("%.0f allocations per launch, %.2f per point", perLaunch, perPoint)
	if perPoint > issueAllocsPerPointBudget {
		t.Errorf("%.2f allocations per point, budget %.2f", perPoint, issueAllocsPerPointBudget)
	}
}
