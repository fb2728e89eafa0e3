package rt

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/wire"
)

// testCluster stands up an n-node wire mesh over the in-process loopback
// hub: node 0 is returned for the runtime, nodes 1..n-1 act as workers
// whose Exec handler runs fn and whose deliveries are collected.
type testCluster struct {
	meshes   []*wire.Mesh
	executed []atomic.Int64 // per-node remote executions

	mu     sync.Mutex
	slices map[int][]ClusterMsg // node -> received slice messages
}

func newTestCluster(t *testing.T, n int, fn func(task string, point domain.Point, args []byte) ([]byte, error)) *testCluster {
	t.Helper()
	return chaosCluster(t, n, nil, nil, fn)
}

// chaosCluster is newTestCluster with plan applied to every hub port — the
// in-process stand-in for a wire.Proxy between the processes — fast
// retransmission, and node 0's mesh recording into reg (the workers keep
// private registries, as separate processes would).
func chaosCluster(t *testing.T, n int, plan *wire.ChaosPlan, reg *metrics.Registry,
	fn func(task string, point domain.Point, args []byte) ([]byte, error)) *testCluster {
	t.Helper()
	var chaos *wire.Chaos
	if plan != nil {
		var err error
		if chaos, err = wire.NewChaos(plan, reg); err != nil {
			t.Fatal(err)
		}
	}
	hub := wire.NewHub()
	tc := &testCluster{
		meshes:   make([]*wire.Mesh, n),
		executed: make([]atomic.Int64, n),
		slices:   map[int][]ClusterMsg{},
	}
	for i := 0; i < n; i++ {
		fab := hub.Fabric(i)
		if chaos != nil {
			fab = chaos.Wrap(fab)
		}
		var mreg *metrics.Registry
		if i == 0 {
			mreg = reg
		}
		m, err := wire.NewMesh(wire.MeshConfig{
			Self: i, Nodes: n, Fabric: fab, Retransmit: fastRetransmit, Metrics: mreg,
			Deliver: func(node int, tag string, payload []byte) {
				msg, err := DecodeClusterPayload(payload)
				if err != nil {
					t.Errorf("node %d: bad cluster payload: %v", node, err)
					return
				}
				tc.mu.Lock()
				tc.slices[node] = append(tc.slices[node], msg)
				tc.mu.Unlock()
			},
			Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
				tc.executed[i].Add(1)
				return fn(task, point, args)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return tc
}

func (tc *testCluster) remoteExecs() int64 {
	var total int64
	for i := range tc.executed {
		total += tc.executed[i].Load()
	}
	return total
}

func TestClusterLoopbackRemoteExecution(t *testing.T) {
	const nodes = 3
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		return EncodeF64(float64(point.X() * point.X())), nil
	}
	tc := newTestCluster(t, nodes, body)
	r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Cluster: tc.meshes[0]})
	defer r.Shutdown()

	// The registered body is what node-0-local points run; workers run the
	// mesh Exec handler above. Both compute x².
	id := r.MustRegisterTask("square", func(ctx *Context) ([]byte, error) {
		return EncodeF64(float64(ctx.Point.X() * ctx.Point.X())), nil
	})

	fm, err := r.ExecuteIndex(&core.IndexLaunch{
		Task:   id,
		Tag:    "squares",
		Domain: domain.Range1(0, 29),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := fm.SumF64()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, p := range domain.Range1(0, 29).Points() {
		want += float64(p.X() * p.X())
	}
	if fm.Len() != 30 || sum != want {
		t.Fatalf("got %d results summing %v, want 30 summing %v", fm.Len(), sum, want)
	}
	r.Fence()

	// Most points belong to worker nodes (block mapping over 3 nodes →
	// ~20 of 30 points) and must have executed in the "worker" meshes.
	if got := tc.remoteExecs(); got == 0 {
		t.Fatal("no remote executions: cluster mode ran everything locally")
	}
	if tc.executed[0].Load() != 0 {
		t.Fatal("node 0 received Exec requests; local points must run locally")
	}

	// Workers received their slice descriptors.
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for n := 1; n < nodes; n++ {
		found := false
		for _, m := range tc.slices[n] {
			if m.Kind == "slice" && m.Slice.Node == n && !m.Slice.Domain.Empty() {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d received no slice descriptor: %+v", n, tc.slices[n])
		}
	}
}

func TestClusterRemoteTaskErrorFeedsRetryLadder(t *testing.T) {
	var failures atomic.Int64
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		if failures.Add(1) <= 2 {
			return nil, errors.New("transient worker failure")
		}
		return EncodeF64(1), nil
	}
	tc := newTestCluster(t, 2, body)
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, IndexLaunches: true,
		Cluster: tc.meshes[0], Retry: RetryPolicy{Max: 3}})
	defer r.Shutdown()
	id := r.MustRegisterTask("flaky", func(ctx *Context) ([]byte, error) {
		return EncodeF64(1), nil
	})
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "t", Domain: domain.Range1(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if werr := fm.Wait(); werr != nil {
		t.Fatalf("points failed despite retries: %v", werr)
	}
	if r.Stats().Retries == 0 {
		t.Fatal("remote failures did not drive the retry ladder")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	tc := newTestCluster(t, 3, func(string, domain.Point, []byte) ([]byte, error) { return nil, nil })
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dcr", Config{Nodes: 3, ProcsPerNode: 1, DCR: true, Cluster: tc.meshes[0]}},
		{"node-count", Config{Nodes: 5, ProcsPerNode: 1, Cluster: tc.meshes[0]}},
		{"not-node-zero", Config{Nodes: 3, ProcsPerNode: 1, Cluster: tc.meshes[1]}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Fatalf("%s: config accepted", c.name)
		}
	}
}

// One set of transport counters: in cluster mode Stats reads the xport_*
// and health_* families the mesh and the detector record into the shared
// registry, so they are live (not zero) and agree with /metrics. A chaos
// plan between the processes and a partition of the 0<->1 link drive every
// counter: retransmits, Result duplicates deduplicated at node 0, node 1
// suspected and its subtree re-parented, heartbeat probes.
func TestClusterStatsReadTransportCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	tc := chaosCluster(t, 8, &wire.ChaosPlan{
		Seed: 3, Drop: 0.1, Dup: 0.3,
		Partitions: []wire.Partition{{A: 0, B: 1, AfterSends: 0, Sends: 16}},
	}, reg, func(task string, point domain.Point, args []byte) ([]byte, error) {
		return EncodeF64(float64(point.X())), nil
	})
	r := MustNew(Config{Nodes: 8, ProcsPerNode: 2, IndexLaunches: true,
		Cluster: tc.meshes[0], Heartbeat: testHeartbeat})
	defer r.Shutdown()
	id := r.MustRegisterTask("x", func(ctx *Context) ([]byte, error) {
		return EncodeF64(float64(ctx.Point.X())), nil
	})
	for round := 0; round < 6; round++ {
		fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "x", Domain: domain.Range1(0, 15)})
		if err != nil {
			t.Fatal(err)
		}
		if sum, err := fm.SumF64(); err != nil || sum != 120 {
			t.Fatalf("round %d: sum %v, err %v; want 120", round, sum, err)
		}
	}
	r.Fence()
	if r.Metrics() != reg {
		t.Fatal("runtime did not adopt the cluster mesh's registry")
	}

	st := r.Stats()
	vals := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if len(f.Series) == 1 && len(f.Series[0].Labels) == 0 {
			vals[f.Name] = f.Series[0].Value
		}
	}
	for _, c := range []struct {
		name string
		got  int64
	}{
		{metrics.NameXportSends, st.MsgSends},
		{metrics.NameXportRetransmits, st.MsgRetransmits},
		{metrics.NameXportDedups, st.MsgDedups},
		{metrics.NameXportReparents, st.Reparents},
		{metrics.NameHealthProbes, st.HealthProbes},
	} {
		if c.got == 0 {
			t.Errorf("Stats field for %s reads 0 in cluster mode", c.name)
		}
		if c.got != vals[c.name] {
			t.Errorf("Stats field for %s = %d, registry = %d", c.name, c.got, vals[c.name])
		}
	}
	if st.HealthProbeFails == 0 || st.HealthProbeFails != vals[metrics.NameHealthProbeFails] {
		t.Errorf("probe failures = %d, registry = %d; the partition must fail probes",
			st.HealthProbeFails, vals[metrics.NameHealthProbeFails])
	}
}

// The registry rule behind one set of counters: a cluster mesh recording
// somewhere other than Config.Metrics is a configuration error.
func TestClusterRejectsSplitRegistries(t *testing.T) {
	tc := chaosCluster(t, 2, nil, metrics.NewRegistry(), func(string, domain.Point, []byte) ([]byte, error) { return nil, nil })
	_, err := New(Config{Nodes: 2, ProcsPerNode: 1, Cluster: tc.meshes[0], Metrics: metrics.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("split registries accepted: %v", err)
	}
}

func TestClusterPayloadRoundTrip(t *testing.T) {
	dense := Slice{Domain: domain.Range1(5, 25), Node: 2}
	b := encodeClusterPayload(sliceMsg{idx: 7, s: dense})
	msg, err := DecodeClusterPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "slice" || msg.Index != 7 || msg.Slice.Node != 2 || !msg.Slice.Domain.Eq(dense.Domain) {
		t.Fatalf("dense round trip: %+v", msg)
	}

	sparse := Slice{Domain: domain.DiagonalSlice3(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(3, 3, 3)}, 4), Node: 1}
	b = encodeClusterPayload(sliceMsg{idx: 0, s: sparse})
	msg, err = DecodeClusterPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "slice" || !msg.Slice.Domain.Eq(sparse.Domain) || !msg.Slice.Domain.Sparse() {
		t.Fatalf("sparse round trip: %+v", msg)
	}

	b = encodeClusterPayload(resyncMsg{epoch: -9})
	msg, err = DecodeClusterPayload(b)
	if err != nil || msg.Kind != "resync" || msg.Epoch != -9 {
		t.Fatalf("resync round trip: %v %+v", err, msg)
	}

	for _, bad := range [][]byte{nil, {99}, {1, 0x80}, {2}} {
		if _, err := DecodeClusterPayload(bad); err == nil {
			t.Fatalf("payload %v accepted", bad)
		}
	}
}
