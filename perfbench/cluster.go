package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/sched"
	"indexlaunch/internal/wire"
)

// clusterWorkers is the number of worker meshes beside node 0. They run in
// this process but talk to node 0 only through localhost sockets; on a
// two-core machine separate worker processes would mostly measure the OS
// scheduler.
const clusterWorkers = 2

const workerSpanEvery = 8

type clusterEnv struct {
	r      *rt.Runtime
	reg    *metrics.Registry
	meshes []*wire.Mesh // node 0 first
	task   core.TaskID

	// Worker-side accounting: remote points executed, and (traced) the
	// time inside each Exec callback. Every workerSpanEvery-th launch also
	// records a span per remote point, parented on the launch in flight;
	// spans for all of them would crowd the launches out of the span cap.
	execs   atomic.Int64
	current atomic.Pointer[launchRef] // the sampled launch in flight, else nil
	mu      sync.Mutex
	bodyUS  []float64
	sp      *spanRecorder
}

// launchRef names a launch's span and the operation its spans share.
type launchRef struct{ span, op uint64 }

func (e *clusterEnv) close() {
	e.r.Shutdown()
	closeMeshes(e.meshes)
}

// syntheticExec serves remote points the way cmd/idxnode does: the
// synthetic body looked up by task name. It counts the points in execs.
func syntheticExec(execs *atomic.Int64) func(string, domain.Point, []byte) ([]byte, error) {
	return func(task string, p domain.Point, _ []byte) ([]byte, error) {
		if task != sched.SyntheticTaskName {
			return nil, fmt.Errorf("unknown task kind %q", task)
		}
		execs.Add(1)
		return sched.SyntheticEval(p.X()), nil
	}
}

// workerExec is syntheticExec that also times the body when traced.
func (e *clusterEnv) workerExec(node int, traced bool) func(string, domain.Point, []byte) ([]byte, error) {
	exec := syntheticExec(&e.execs)
	if !traced {
		return exec
	}
	return func(task string, p domain.Point, args []byte) ([]byte, error) {
		t0 := time.Now()
		out, err := exec(task, p, args)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if l := e.current.Load(); l != nil {
			e.sp.add(0, l.span, l.op, "wire.exec", int32(node), t0, t1)
		}
		e.mu.Lock()
		e.bodyUS = append(e.bodyUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		e.mu.Unlock()
		return out, nil
	}
}

// openMeshes starts worker meshes 1..workers, each serving remote points
// with exec(node), and node 0's mesh, over localhost TCP; node 0's mesh
// records into reg. The meshes are returned node 0 first.
func openMeshes(workers int, reg *metrics.Registry, exec func(node int) func(string, domain.Point, []byte) ([]byte, error)) ([]*wire.Mesh, error) {
	nodes := workers + 1
	peers := map[int]string{}
	var meshes []*wire.Mesh
	fail := func(err error) ([]*wire.Mesh, error) {
		for _, m := range meshes {
			_ = m.Close()
		}
		return nil, err
	}
	for n := 1; n < nodes; n++ {
		fab, err := wire.NewTCP(wire.TCPConfig{Self: n, Listen: "127.0.0.1:0"})
		if err != nil {
			return fail(err)
		}
		peers[n] = fab.Addr()
		m, err := wire.NewMesh(wire.MeshConfig{
			Self: n, Nodes: nodes, Fabric: fab, Exec: exec(n),
			Deliver: func(int, string, []byte) {}, // slice descriptors need no bookkeeping here
		})
		if err != nil {
			_ = fab.Close()
			return fail(err)
		}
		meshes = append(meshes, m)
	}
	fab0, err := wire.NewTCP(wire.TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: peers, Epoch: 1})
	if err != nil {
		return fail(err)
	}
	m0, err := wire.NewMesh(wire.MeshConfig{Self: 0, Nodes: nodes, Fabric: fab0, Metrics: reg})
	if err != nil {
		_ = fab0.Close()
		return fail(err)
	}
	return append([]*wire.Mesh{m0}, meshes...), nil
}

func closeMeshes(ms []*wire.Mesh) {
	for _, m := range ms {
		_ = m.Close() // teardown: the run's results are already taken
	}
}

// setupCluster opens the meshes, hands node 0's mesh to a runtime as
// rt.Config.Cluster, and warms the sockets up with a few launches.
func setupCluster(o runOpts, sp *spanRecorder) (*clusterEnv, error) {
	e := &clusterEnv{sp: sp}
	if o.Traced {
		e.reg = metrics.NewRegistry()
	}
	var err error
	e.meshes, err = openMeshes(clusterWorkers, e.reg, func(n int) func(string, domain.Point, []byte) ([]byte, error) {
		return e.workerExec(n, o.Traced)
	})
	if err != nil {
		return nil, err
	}
	e.r, err = rt.New(rt.Config{Nodes: clusterWorkers + 1, ProcsPerNode: 2, IndexLaunches: true, Cluster: e.meshes[0], Metrics: e.reg})
	if err != nil {
		closeMeshes(e.meshes)
		return nil, err
	}
	if err := sched.SyntheticSetup(e.r); err != nil {
		e.close()
		return nil, err
	}
	e.task, _ = e.r.TaskNamed(sched.SyntheticTaskName)
	warm := newClusterGen(^o.Seed)
	for i := 0; i < 20; i++ {
		l := warm.next()
		if _, err := e.launch(l); err != nil {
			e.close()
			return nil, fmt.Errorf("cluster warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *clusterEnv) launch(l clusterLaunch) (float64, error) {
	il, err := core.Forall(sched.SyntheticTaskName, e.task, domain.Range1(l.Base, l.Base+int64(l.Size)-1))
	if err != nil {
		return 0, err
	}
	fm, err := e.r.ExecuteIndex(il)
	if err != nil {
		return 0, err
	}
	return fm.SumF64()
}

// wireTotals sums node 0's per-peer frame and byte counters.
func wireTotals(m *wire.Mesh) (frames, bytes int64) {
	for _, p := range m.Peers() {
		frames += p.MsgsSent + p.MsgsRecv
		bytes += p.BytesSent + p.BytesRecv
	}
	return frames, bytes
}

func meshRetransmits(ms []*wire.Mesh) int64 {
	var n int64
	for _, m := range ms {
		n += m.Stats().Retransmits
	}
	return n
}

// runCluster is a closed loop: each launch is issued and its results
// summed before the next one starts, in bursts of burstLen.
func runCluster(o runOpts) (*runResult, error) {
	var setups []float64
	var e *clusterEnv
	epoch := time.Now()
	sp := o.spans(epoch)
	for i := 0; i < o.Reps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setupCluster(o, sp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	r, m0 := e.r, e.meshes[0]
	res := newRunResult(clusterWorkers + 1)
	gen := newClusterGen(o.Seed)
	type launchOut struct {
		l   clusterLaunch
		sum float64
	}
	var outs []launchOut
	var latencies []float64
	var issueNS, waitNS, verifyNS, points int64
	var launches, failed int64

	st0 := r.Stats()
	stage0 := stageSums(e.reg)
	frames0, bytes0 := wireTotals(m0)
	retx0 := meshRetransmits(e.meshes)
	execs0 := e.execs.Load()
	e.mu.Lock()
	e.bodyUS = e.bodyUS[:0]
	e.mu.Unlock()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var rates []float64
	start := time.Now()
	deadline := start.Add(o.Seconds)
	for time.Now().Before(deadline) {
		segStart := time.Now()
		runtime.GC() // each burst starts from a collected heap, as in circuit
		segEnd := segStart.Add(burstLen)
		if segEnd.After(deadline) {
			segEnd = deadline
		}
		segPoints := 0
		for time.Now().Before(segEnd) {
			l := gen.next()
			il, err := core.Forall(sched.SyntheticTaskName, e.task, domain.Range1(l.Base, l.Base+int64(l.Size)-1))
			if err != nil {
				return nil, err
			}
			op := uint64(launches + 1)
			launchID := sp.newID()
			if op%workerSpanEvery == 0 {
				e.current.Store(&launchRef{launchID, op})
			} else {
				e.current.Store(nil)
			}
			if o.Traced {
				tv := time.Now()
				il.Verify(r.Config().Checks)
				tv1 := time.Now()
				verifyNS += tv1.Sub(tv).Nanoseconds()
				sp.add(0, launchID, op, "safety.verify", 0, tv, tv1)
			}
			t0 := time.Now()
			fm, err := r.ExecuteIndex(il)
			t1 := time.Now()
			launches++
			if err != nil {
				failed++
				continue
			}
			sum, err := fm.SumF64()
			t2 := time.Now()
			if err != nil {
				failed++
				continue
			}
			issueNS += t1.Sub(t0).Nanoseconds()
			waitNS += t2.Sub(t1).Nanoseconds()
			points += int64(l.Size)
			segPoints += l.Size
			latencies = append(latencies, ms(t2.Sub(t0)))
			outs = append(outs, launchOut{l, sum})
			sp.add(0, launchID, op, "rt.issue", 0, t0, t1)
			sp.add(0, launchID, op, "rt.wait", 0, t1, t2)
			sp.add(launchID, 0, op, "bench.launch", 0, t0, t2)
		}
		// Every launch of the burst has returned its results, so the runtime
		// is idle: recycle it, as the scheduler does between jobs, so that
		// per-session transport state does not pile up across bursts.
		if err := r.Recycle(); err != nil {
			res.check(false, "recycle: %v", err)
		}
		rates = append(rates, float64(segPoints)/time.Since(segStart).Seconds())
	}
	end := time.Now()
	runtime.ReadMemStats(&ms1)
	st1 := r.Stats()
	stage1 := stageSums(e.reg)
	frames1, bytes1 := wireTotals(m0)
	retx1 := meshRetransmits(e.meshes)
	remote := float64(e.execs.Load() - execs0)
	if rss, err := peakRSSMB("self"); err == nil {
		res.E2E.set("peak_rss_mb", rss, "MB", 1)
	}

	// Correctness: every launch's reduction must equal the sequential sum
	// of the synthetic body over its domain — exact, since the terms are
	// small integers.
	wrong := 0
	for _, out := range outs {
		if want := out.l.expectedSum(); out.sum != want {
			if wrong == 0 {
				res.check(false, "cluster: launch [%d,+%d) summed %v, want %v", out.l.Base, out.l.Size, out.sum, want)
			}
			wrong++
		}
	}
	if wrong > 1 {
		res.check(false, "cluster: %d launches returned wrong sums in total", wrong)
	}
	res.Attempted = launches
	res.Failed = failed + int64(wrong)
	res.Notes["launches"] = launches
	res.Notes["remote_points"] = remote
	res.Notes["burst_tasks_per_s"] = rates

	wall := end.Sub(start)
	fpoints := float64(points)
	res.E2E.set("setup_s", median(setups), "s", len(setups))
	res.E2E.set("tasks_per_s", median(rates), "1/s", len(rates))
	res.E2E.pct("launch_ms_p50", latencies, 0.50, "ms")
	res.E2E.pct("launch_ms_p99", latencies, 0.99, "ms")

	L := res.Layers
	L.set("rt.issue_us_per_point", ratio(float64(issueNS)/1e3, fpoints), "us", int(launches))
	L.set("rt.fence_ms", ratio(ms(time.Duration(waitNS)), float64(len(outs))), "ms", len(outs))
	L.set("rt.version_queries_per_point", ratio(float64(st1.VersionQueries-st0.VersionQueries), fpoints), "count", 1)
	L.set("rt.dep_edges_per_point", ratio(float64(st1.DepEdges-st0.DepEdges), fpoints), "count", 1)
	L.set("rt.allocs_per_point", ratio(float64(ms1.Mallocs-ms0.Mallocs), fpoints), "count", 1)
	L.set("rt.alloc_bytes_per_point", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), fpoints), "B", 1)
	setStageMetrics(L, stage0, stage1, fpoints)
	L.set("safety.verify_us_per_launch", ratio(float64(verifyNS)/1e3, float64(launches)), "us", int(launches))
	frames := float64(frames1 - frames0)
	L.set("wire.frames_per_remote_point", ratio(frames, remote), "count", 1)
	L.set("wire.bytes_per_remote_point", ratio(float64(bytes1-bytes0), remote), "B", 1)
	L.set("wire.retransmits_per_1k_frames", 1000*ratio(float64(retx1-retx0), frames), "count", 1)
	if o.Traced {
		e.mu.Lock()
		L.pct("wire.worker_body_us_p50", e.bodyUS, 0.50, "us")
		e.mu.Unlock()
	}
	res.finishSpans(sp, wall)
	return res, nil
}
