package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
)

// circuitTolerance bounds the node-voltage divergence from the sequential
// reference: the parallel run folds charge reductions in another order, so
// sums differ in the last bits, never more.
const circuitTolerance = 1e-9

type circuitEnv struct {
	c        *circuit.Circuit
	r        *rt.Runtime
	reg      *metrics.Registry
	launches []*core.IndexLaunch
	steps    int // steps issued so far, warm-up included
}

// setupCircuit builds the seeded graph and a runtime configured like the
// paper's DCR + IDX runs, registers the app, and warms it up with two
// fenced steps.
func setupCircuit(o runOpts) (*circuitEnv, error) {
	c, err := circuit.Build(circuitParams(o.Seed))
	if err != nil {
		return nil, err
	}
	cfg := rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: true}
	var reg *metrics.Registry
	if o.Traced {
		// The stage histograms need a registry; attaching one also turns on
		// the runtime's stage clock reads, which is part of the traced
		// run's overhead.
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	r, err := rt.New(cfg)
	if err != nil {
		return nil, err
	}
	app := circuit.NewApp(c, r)
	e := &circuitEnv{c: c, r: r, reg: reg, launches: stepLaunches(app)}
	for ; e.steps < 2; e.steps++ {
		for _, l := range e.launches {
			if _, err := r.ExecuteIndex(l); err != nil {
				r.Shutdown()
				return nil, err
			}
		}
	}
	if err := r.FenceErr(); err != nil {
		r.Shutdown()
		return nil, fmt.Errorf("circuit warm-up: %w", err)
	}
	return e, nil
}

// stepLaunches builds the three launches of one circuit timestep exactly
// as circuit.App.Step issues them; the benchmark issues them itself so it
// can time each ExecuteIndex call and wait on each launch's futures.
func stepLaunches(a *circuit.App) []*core.IndexLaunch {
	c := a.C
	task := func(name string) core.TaskID {
		id, ok := a.RT.TaskNamed(name)
		if !ok {
			panic("circuit task " + name + " not registered")
		}
		return id
	}
	id := projection.Identity(1)
	return []*core.IndexLaunch{
		core.MustForall("calc_new_currents", task("circuit.calc_new_currents"), c.LaunchDomain,
			core.Requirement{Partition: c.PieceWires, Functor: id, Priv: privilege.ReadWrite,
				Fields: []region.FieldID{circuit.FieldCurrent, circuit.FieldResistance, circuit.FieldInNode, circuit.FieldOutNode}},
			core.Requirement{Partition: c.AllNodes, Functor: id, Priv: privilege.Read,
				Fields: []region.FieldID{circuit.FieldVoltage}},
		),
		core.MustForall("distribute_charge", task("circuit.distribute_charge"), c.LaunchDomain,
			core.Requirement{Partition: c.PieceWires, Functor: id, Priv: privilege.Read,
				Fields: []region.FieldID{circuit.FieldCurrent, circuit.FieldInNode, circuit.FieldOutNode}},
			core.Requirement{Partition: c.AllNodes, Functor: id, Priv: privilege.Reduce,
				RedOp: privilege.OpSumF64, Fields: []region.FieldID{circuit.FieldCharge}},
		),
		core.MustForall("update_voltages", task("circuit.update_voltages"), c.LaunchDomain,
			core.Requirement{Partition: c.PrivateNodes, Functor: id, Priv: privilege.ReadWrite,
				Fields: []region.FieldID{circuit.FieldVoltage, circuit.FieldCharge, circuit.FieldCapacitance, circuit.FieldLeakage}},
		),
	}
}

// runCircuit is a closed loop with one issuing goroutine: timesteps are
// issued back to back for burstLen, then fenced, until the deadline.
// The program never waits for a launch's results, so a launch costs it the
// ExecuteIndex call: that is its launch latency. A traced run also waits
// on each launch's futures from a goroutine per launch, to record when
// the launch finished.
func runCircuit(o runOpts) (*runResult, error) {
	var setups []float64
	var e *circuitEnv
	for i := 0; i < o.Reps; i++ {
		if e != nil {
			e.r.Shutdown()
		}
		t0 := time.Now()
		var err error
		if e, err = setupCircuit(o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.r.Shutdown()
	r := e.r
	checks := r.Config().Checks

	res := newRunResult(4)
	st0 := r.Stats()
	stage0 := stageSums(e.reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var wg sync.WaitGroup
	var latencies, rates, fences []float64
	var issueNS, verifyNS int64
	var launches, failed int64
	start := time.Now()
	sp := o.spans(start)
	deadline := start.Add(o.Seconds)
	for time.Now().Before(deadline) {
		// Each burst starts from a collected heap, so the collector's pacing
		// does not carry one burst's in-flight state into the next. The
		// collection is timed with the burst: it is the previous burst's
		// garbage.
		segStart := time.Now()
		runtime.GC()
		segEnd := segStart.Add(burstLen)
		if segEnd.After(deadline) {
			segEnd = deadline
		}
		segLaunches := 0
		for time.Now().Before(segEnd) {
			step := uint64(e.steps + 1)
			stepID := sp.newID()
			stepStart := time.Now()
			for _, l := range e.launches {
				if o.Traced {
					tv := time.Now()
					l.Verify(checks)
					tv1 := time.Now()
					verifyNS += tv1.Sub(tv).Nanoseconds()
					sp.add(0, stepID, step, "safety.verify", 0, tv, tv1)
				}
				t0 := time.Now()
				fm, err := r.ExecuteIndex(l)
				t1 := time.Now()
				launches++
				segLaunches++
				if err != nil {
					failed++
					continue
				}
				issueNS += t1.Sub(t0).Nanoseconds()
				latencies = append(latencies, ms(t1.Sub(t0)))
				if !o.Traced {
					continue
				}
				launchID := sp.newID()
				sp.add(0, launchID, step, "rt.issue", 0, t0, t1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = fm.Wait() // a failed point fails the burst's fence
					sp.add(launchID, stepID, step, "rt.launch", 0, t0, time.Now())
				}()
			}
			e.steps++
			sp.add(stepID, 0, step, "bench.step", 0, stepStart, time.Now())
		}
		tf := time.Now()
		if err := r.FenceErr(); err != nil {
			failed++
			res.check(false, "fence: %v", err)
		}
		te := time.Now()
		sp.add(0, 0, uint64(e.steps), "rt.fence", 0, tf, te)
		fences = append(fences, ms(te.Sub(tf)))
		rates = append(rates, float64(segLaunches)*circuitPieces/te.Sub(segStart).Seconds())
	}
	end := time.Now()
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	st1 := r.Stats()
	stage1 := stageSums(e.reg)
	if rss, err := peakRSSMB("self"); err == nil {
		res.E2E.set("peak_rss_mb", rss, "MB", 1)
	}

	wall := end.Sub(start)
	points := float64(launches) * circuitPieces
	res.Attempted = launches
	res.Failed = failed

	// Correctness: a twin graph stepped sequentially the same number of
	// times must end at the same voltages.
	twin, err := circuit.Build(circuitParams(o.Seed))
	if err != nil {
		return nil, err
	}
	circuit.Reference(twin, e.steps)
	diff := maxVoltageDiff(e.c, twin)
	if !res.check(diff <= circuitTolerance, "circuit: node voltages diverge from the reference by %.3g after %d steps", diff, e.steps) {
		res.Failed = res.Attempted // a wrong simulation makes every launch's output wrong
	}
	res.Notes["steps"] = e.steps
	res.Notes["total_voltage"] = e.c.TotalVoltage()
	res.Notes["reference_voltage"] = twin.TotalVoltage()
	res.Notes["max_voltage_diff"] = diff
	res.Notes["burst_tasks_per_s"] = rates

	res.E2E.set("setup_s", median(setups), "s", len(setups))
	res.E2E.set("tasks_per_s", median(rates), "1/s", len(rates))
	res.E2E.pct("launch_ms_p50", latencies, 0.50, "ms")
	res.E2E.pct("launch_ms_p99", latencies, 0.99, "ms")

	L := res.Layers
	L.set("rt.issue_us_per_point", ratio(float64(issueNS)/1e3, points), "us", int(launches))
	L.set("rt.fence_ms", median(fences), "ms", len(fences))
	L.set("rt.version_queries_per_point", ratio(float64(st1.VersionQueries-st0.VersionQueries), points), "count", 1)
	L.set("rt.dep_edges_per_point", ratio(float64(st1.DepEdges-st0.DepEdges), points), "count", 1)
	L.set("rt.allocs_per_point", ratio(float64(ms1.Mallocs-ms0.Mallocs), points), "count", 1)
	L.set("rt.alloc_bytes_per_point", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), points), "B", 1)
	setStageMetrics(L, stage0, stage1, points)
	L.set("safety.verify_us_per_launch", ratio(float64(verifyNS)/1e3, float64(launches)), "us", int(launches))
	res.finishSpans(sp, wall)
	return res, nil
}

func maxVoltageDiff(a, b *circuit.Circuit) float64 {
	va := region.MustFieldF64(a.Nodes.Root(), circuit.FieldVoltage)
	vb := region.MustFieldF64(b.Nodes.Root(), circuit.FieldVoltage)
	var worst float64
	a.Nodes.Root().Domain.Each(func(p domain.Point) bool {
		d := math.Abs(va.Get(p) - vb.Get(p))
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		worst = max(worst, d)
		return true
	})
	return worst
}
