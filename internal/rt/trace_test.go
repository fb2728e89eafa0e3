package rt

import (
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// The capture/replay suite. Every case takes the replay policy as its
// argument and runs twice: TestTrace* replays at task granularity,
// TestBulkTrace* with Config.BulkTracing (launch-granular cross-launch
// edges). Cases with several variants table-drive them as subtests.

func TestTraceCaptureThenReplay(t *testing.T)     { traceCaptureThenReplay(t, false) }
func TestBulkTraceCaptureThenReplay(t *testing.T) { traceCaptureThenReplay(t, true) }

func TestTraceMultiLaunchBody(t *testing.T)     { traceMultiLaunchBody(t, false) }
func TestBulkTraceMultiLaunchBody(t *testing.T) { traceMultiLaunchBody(t, true) }

func TestTraceIntraLaunchDeps(t *testing.T)     { traceIntraLaunchDeps(t, false) }
func TestBulkTraceIntraLaunchDeps(t *testing.T) { traceIntraLaunchDeps(t, true) }

func TestTraceReplayOrdersAgainstOutsideWork(t *testing.T) { traceOrdersAgainstOutsideWork(t, false) }
func TestBulkTraceOrdersAgainstOutsideWork(t *testing.T)   { traceOrdersAgainstOutsideWork(t, true) }

func TestTraceReplayDivergencePanics(t *testing.T) { traceDivergencePanics(t, false) }
func TestBulkTraceDivergencePanics(t *testing.T)   { traceDivergencePanics(t, true) }

func TestTraceIncompleteReplayErrors(t *testing.T)     { traceIncompleteReplayErrors(t, false) }
func TestBulkTraceIncompleteReplayErrors(t *testing.T) { traceIncompleteReplayErrors(t, true) }

func TestTraceWithSingleTasks(t *testing.T) { traceWithSingleTasks(t, false) }
func TestBulkTraceWithSingles(t *testing.T) { traceWithSingleTasks(t, true) }

func TestTraceErrors(t *testing.T)     { traceErrors(t, false) }
func TestBulkTraceErrors(t *testing.T) { traceErrors(t, true) }

func traceConfig(bulk bool) Config {
	return Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true, Tracing: true, BulkTracing: bulk}
}

// traceRuntime returns a tracing runtime, a 40-element line in 4 blocks and
// a launch incrementing every block.
func traceRuntime(t *testing.T, bulk bool) (*Runtime, *region.Tree, *core.IndexLaunch) {
	t.Helper()
	r := MustNew(traceConfig(bulk))
	tree, p := lineSetup(t, 40, 4)
	inc := r.MustRegisterTask("inc", incrementTask)
	launch := core.MustForall("inc", inc, domain.Range1(0, 3), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	return r, tree, launch
}

// traceEpisode issues launches between BeginTrace(id) and EndTrace(id).
func traceEpisode(t *testing.T, r *Runtime, id uint64, launches ...*core.IndexLaunch) {
	t.Helper()
	if err := r.BeginTrace(id); err != nil {
		t.Fatal(err)
	}
	for _, l := range launches {
		if _, err := r.ExecuteIndex(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.EndTrace(id); err != nil {
		t.Fatal(err)
	}
}

func checkSum(t *testing.T, tree *region.Tree, want float64) {
	t.Helper()
	if sum, _ := region.SumF64(tree.Root(), fieldVal); sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	f()
}

func traceCaptureThenReplay(t *testing.T, bulk bool) {
	r, tree, launch := traceRuntime(t, bulk)
	const iters = 5
	for i := 0; i < iters; i++ {
		traceEpisode(t, r, 1, launch)
	}
	r.Fence()
	checkSum(t, tree, 40*iters)
	st := r.Stats()
	if st.TraceCaptures != 1 {
		t.Errorf("captures = %d, want 1", st.TraceCaptures)
	}
	if st.TraceReplays != iters-1 {
		t.Errorf("replays = %d, want %d", st.TraceReplays, iters-1)
	}
	// Replays skip version-map analysis: 4 point tasks per replayed
	// iteration.
	if st.AnalysisSkipped != int64(4*(iters-1)) {
		t.Errorf("analysis skipped = %d, want %d", st.AnalysisSkipped, 4*(iters-1))
	}
}

func traceMultiLaunchBody(t *testing.T, bulk bool) {
	// A two-launch body with a cross-launch dependency (producer-consumer)
	// must replay correctly: the consumer's points wait on the producer's
	// (per point, or on its merged completion under bulk replay).
	cfg := traceConfig(bulk)
	cfg.ProcsPerNode = 4
	r := MustNew(cfg)
	_, srcPart := lineSetup(t, 40, 4)
	dst, dstPart := lineSetup(t, 40, 4)

	produce := r.MustRegisterTask("produce", func(ctx *Context) ([]byte, error) {
		acc, err := ctx.WriteF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		in, err := ctx.ReadF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			acc.Set(p, in.Get(p)+1)
			return true
		})
		return nil, nil
	})
	consume := r.MustRegisterTask("consume", func(ctx *Context) ([]byte, error) {
		in, err := ctx.ReadF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		out, err := ctx.WriteF64(1, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			out.Set(p, in.Get(p)*10)
			return true
		})
		return nil, nil
	})

	d := domain.Range1(0, 3)
	lp := core.MustForall("produce", produce, d, core.Requirement{
		Partition: srcPart, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	lc := core.MustForall("consume", consume, d,
		core.Requirement{Partition: srcPart, Functor: projection.Identity(1),
			Priv: privilege.Read, Fields: []region.FieldID{fieldVal}},
		core.Requirement{Partition: dstPart, Functor: projection.Identity(1),
			Priv: privilege.Write, Fields: []region.FieldID{fieldVal}},
	)

	const iters = 4
	for i := 0; i < iters; i++ {
		traceEpisode(t, r, 2, lp, lc)
	}
	r.Fence()
	// After iteration k, src holds k and dst holds 10k everywhere.
	checkSum(t, dst, 40*10*iters)
}

func traceIntraLaunchDeps(t *testing.T, bulk bool) {
	// Every point of one launch read-writes the same block, so the points
	// depend on each other. Replay must keep those point-level edges:
	// coarsening them to the launch itself would leave the points waiting
	// on a launch that has not completed yet.
	for _, verify := range []bool{false, true} {
		name := "index"
		if verify {
			name = "demoted" // the hybrid safety check rejects the launch
		}
		t.Run(name, func(t *testing.T) {
			cfg := traceConfig(bulk)
			cfg.VerifyLaunches = verify
			r := MustNew(cfg)
			tree, p := lineSetup(t, 40, 4)
			inc := r.MustRegisterTask("inc", slowIncrementTask)
			launch := core.MustForall("inc", inc, domain.Range1(0, 3), core.Requirement{
				Partition: p, Functor: projection.Constant(domain.Pt1(0)),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
			const iters = 4
			for i := 0; i < iters; i++ {
				traceEpisode(t, r, 3, launch)
			}
			r.Fence()
			checkSum(t, tree, 10*4*iters)
			if st := r.Stats(); st.TraceReplays != iters-1 {
				t.Errorf("replays = %d, want %d", st.TraceReplays, iters-1)
			}
		})
	}
}

// slowIncrementTask increments its region with a widened read-modify-write
// window, so points that are not ordered against each other lose updates
// and the region sum shows it even without the race detector.
func slowIncrementTask(ctx *Context) ([]byte, error) {
	acc, err := ctx.WriteF64(0, fieldVal)
	if err != nil {
		return nil, err
	}
	pr, _ := ctx.Region(0)
	var vals []float64
	pr.Region.Domain.Each(func(p domain.Point) bool {
		vals = append(vals, acc.Get(p))
		return true
	})
	time.Sleep(time.Millisecond)
	i := 0
	pr.Region.Domain.Each(func(p domain.Point) bool {
		acc.Set(p, vals[i]+1)
		i++
		return true
	})
	return nil, nil
}

func traceOrdersAgainstOutsideWork(t *testing.T, bulk bool) {
	// Write through an un-traced launch between two trace episodes; the
	// replay must order after it (external boundary), and un-traced work
	// after the replay must order after the replay (bulk update).
	r, tree, launch := traceRuntime(t, bulk)
	for i := 0; i < 2; i++ { // capture, then replay
		traceEpisode(t, r, 7, launch)
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	checkSum(t, tree, 160) // 4 increments of 40 elements
}

func traceDivergencePanics(t *testing.T, bulk bool) {
	for _, tc := range []struct {
		name string
		// diverge returns a launch that replays differently from the
		// captured one.
		diverge func(r *Runtime, captured *core.IndexLaunch, p *region.Partition) *core.IndexLaunch
	}{
		{"wrong-task", func(r *Runtime, _ *core.IndexLaunch, p *region.Partition) *core.IndexLaunch {
			other := r.MustRegisterTask("other", func(*Context) ([]byte, error) { return nil, nil })
			return core.MustForall("other", other, domain.Range1(0, 3), core.Requirement{
				Partition: p, Functor: projection.Identity(1),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
		}},
		{"wrong-size", func(_ *Runtime, captured *core.IndexLaunch, p *region.Partition) *core.IndexLaunch {
			return core.MustForall("inc", captured.Task, domain.Range1(0, 1), core.Requirement{
				Partition: p, Functor: projection.Identity(1),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _, launch := traceRuntime(t, bulk)
			traceEpisode(t, r, 3, launch)
			_, p := lineSetup(t, 40, 4)
			diverged := tc.diverge(r, launch, p)
			if err := r.BeginTrace(3); err != nil {
				t.Fatal(err)
			}
			mustPanic(t, "divergent replay", func() { _, _ = r.ExecuteIndex(diverged) })
		})
	}
}

func traceIncompleteReplayErrors(t *testing.T, bulk bool) {
	// A replay issuing fewer ops than captured must error at EndTrace.
	r, _, launch := traceRuntime(t, bulk)
	traceEpisode(t, r, 5, launch)
	if err := r.BeginTrace(5); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(5); err == nil {
		t.Error("incomplete replay should error")
	}
	r.Fence()
}

func traceWithSingleTasks(t *testing.T, bulk bool) {
	r := MustNew(traceConfig(bulk))
	tree, _ := lineSetup(t, 10, 1)
	inc := r.MustRegisterTask("inc1", incrementTask)
	req := []SingleReq{{Region: tree.Root(), Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}}}
	for i := 0; i < 3; i++ {
		if err := r.BeginTrace(9); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := r.ExecuteSingle("inc1", inc, req, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndTrace(9); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	checkSum(t, tree, 60) // 6 increments of 10 elements
}

func traceErrors(t *testing.T, bulk bool) {
	r, tree, launch := traceRuntime(t, bulk)
	noTrace := MustNew(Config{Nodes: 1, ProcsPerNode: 1})
	if err := noTrace.BeginTrace(1); err == nil {
		t.Error("BeginTrace with tracing disabled should error")
	}
	if err := r.EndTrace(1); err == nil {
		t.Error("EndTrace without BeginTrace should error")
	}
	// Each phase: a nested BeginTrace and a mismatched EndTrace id are
	// rejected and leave the episode open, so the matching EndTrace still
	// succeeds.
	for i := 0; i < 2; i++ { // capture, then replay
		if err := r.BeginTrace(1); err != nil {
			t.Fatal(err)
		}
		if err := r.BeginTrace(2); err == nil {
			t.Error("nested BeginTrace should error")
		}
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(2); err == nil {
			t.Errorf("episode %d: EndTrace with a mismatched id should error", i)
		}
		if err := r.EndTrace(1); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	checkSum(t, tree, 80)
	if st := r.Stats(); st.TraceCaptures != 1 || st.TraceReplays != 1 {
		t.Errorf("captures=%d replays=%d, want 1 and 1 (template filed under id 1)",
			st.TraceCaptures, st.TraceReplays)
	}
}
