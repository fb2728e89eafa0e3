package wire

import (
	"fmt"
	"testing"
	"time"

	"indexlaunch/internal/metrics"
)

// The delivery contract the in-process runtime relies on, exercised the way
// it runs: every node's mesh on one loopback hub, sharing one registry, with
// every port wrapped by a Chaos decorator when a plan is set.

// fastRetransmit keeps chaos tests quick: dropped hops re-send after 200µs.
var fastRetransmit = RetransmitPolicy{Timeout: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond}

// chaosHub builds an n-node loopback mesh over one hub and one registry,
// applying plan (nil: fault-free) to every port.
func chaosHub(t *testing.T, n int, plan *ChaosPlan, rp RetransmitPolicy) ([]*Mesh, []*sink, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	var chaos *Chaos
	if plan != nil {
		var err error
		if chaos, err = NewChaos(plan, reg); err != nil {
			t.Fatal(err)
		}
	}
	hub := NewHub()
	meshes := make([]*Mesh, n)
	sinks := make([]*sink, n)
	for i := range meshes {
		sinks[i] = newSink()
		fab := hub.Fabric(i)
		if chaos != nil {
			fab = chaos.Wrap(fab)
		}
		m, err := NewMesh(MeshConfig{Self: i, Nodes: n, Fabric: fab, Retransmit: rp, Metrics: reg, Deliver: sinks[i].deliver})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return meshes, sinks, reg
}

// allItems addresses payload "p<d>" to every non-root node d.
func allItems(n int) []Item {
	items := make([]Item, 0, n-1)
	for d := 1; d < n; d++ {
		items = append(items, Item{Dst: d, Payload: []byte(fmt.Sprintf("p%d", d))})
	}
	return items
}

// mustBroadcast runs one broadcast from node 0 and fails the test on error.
func mustBroadcast(t *testing.T, m *Mesh, tag string, items []Item) {
	t.Helper()
	if err := m.Broadcast(tag, items); err != nil {
		t.Fatal(err)
	}
}

// checkRounds asserts every non-root node received exactly its own payload,
// rounds times, under tag — and the origin nothing.
func checkRounds(t *testing.T, sinks []*sink, tag string, rounds int) {
	t.Helper()
	for d := 1; d < len(sinks); d++ {
		want := fmt.Sprintf("%s:p%d", tag, d)
		sinks[d].mu.Lock()
		n := 0
		for _, g := range sinks[d].got {
			if g == want {
				n++
			}
		}
		sinks[d].mu.Unlock()
		if n != rounds || sinks[d].count(tag) != rounds {
			t.Errorf("node %d received %d of its %q payloads (%d in all), want %d", d, n, tag, sinks[d].count(tag), rounds)
		}
	}
	if got := sinks[0].count(tag); got != 0 {
		t.Errorf("origin received its own broadcast %d times", got)
	}
}

// eventually polls cond for up to 5s: duplicate copies travel on
// goroutines, so their dedups may land just after a broadcast returns.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFaultFreeBroadcastDeliversOnce(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	mustBroadcast(t, meshes[0], "b", allItems(8))
	checkRounds(t, sinks, "b", 1)
	// 7 destinations routed through the binary tree: depth(1..7) =
	// 1+1+2+2+2+2+3 = 13 hop sends, counted by origin and relays alike.
	if st := meshes[0].Stats(); st.Sends != 13 || st.Retransmits != 0 || st.Drops != 0 || st.Dedups != 0 || st.Reparents != 0 {
		t.Errorf("stats = %+v, want 13 clean sends", st)
	}
}

func TestChaosDropsForceRetransmits(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, &ChaosPlan{Seed: 7, Drop: 0.4}, fastRetransmit)
	for round := 0; round < 4; round++ {
		mustBroadcast(t, meshes[0], "b", allItems(8))
	}
	checkRounds(t, sinks, "b", 4)
	if st := meshes[0].Stats(); st.Drops == 0 || st.Retransmits == 0 {
		t.Errorf("40%% drop produced no faults: %+v", st)
	}
}

func TestChaosDuplicatesAreDeduped(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, &ChaosPlan{Seed: 3, Dup: 0.6}, RetransmitPolicy{})
	for round := 0; round < 4; round++ {
		mustBroadcast(t, meshes[0], "b", allItems(8))
	}
	eventually(t, "a dedup under 60% duplication", func() bool { return meshes[0].Stats().Dedups > 0 })
	checkRounds(t, sinks, "b", 4)
}

func TestPartitionHealsAndDelivers(t *testing.T) {
	// Link 0–1 is down for its first 3 transmissions: the first sends to
	// node 1 (and the relay toward 3) retransmit through the outage until
	// it heals.
	meshes, sinks, _ := chaosHub(t, 4,
		&ChaosPlan{Seed: 1, Partitions: []Partition{{A: 0, B: 1, AfterSends: 0, Sends: 3}}},
		RetransmitPolicy{Timeout: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	mustBroadcast(t, meshes[0], "b", allItems(4))
	checkRounds(t, sinks, "b", 1)
	if st := meshes[0].Stats(); st.Drops < 3 || st.Retransmits < 3 {
		t.Errorf("outage window should cost >= 3 drops and retransmits: %+v", st)
	}
}

func TestDeadInteriorNodeReparentsSubtree(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	// Node 1 is an interior relay for nodes 3, 4 (children) and 7
	// (grandchild via 3). Killing it must re-parent the subtree onto node
	// 0 and still deliver everywhere else.
	meshes[0].MarkDead(1)
	mustBroadcast(t, meshes[0], "b", allItems(8)[1:])
	for d := 2; d < 8; d++ {
		if got := sinks[d].count("b"); got != 1 {
			t.Errorf("node %d received %d payloads, want 1", d, got)
		}
	}
	if got := sinks[1].count("b"); got != 0 {
		t.Errorf("dead node 1 received %d payloads", got)
	}
	// Orphans of node 1: nodes 3 and 4 (node 7 keeps its live parent 3).
	if st := meshes[0].Stats(); st.Reparents != 2 {
		t.Errorf("reparents = %d, want 2", st.Reparents)
	}
}

func TestDegradedTreeFallsBackToDirectSends(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	for _, n := range []int{1, 2, 3, 4, 5} {
		meshes[0].MarkDead(n)
	}
	mustBroadcast(t, meshes[0], "b", allItems(8)[5:])
	if sinks[6].count("b") != 1 || sinks[7].count("b") != 1 {
		t.Errorf("direct fallback failed: %v %v", sinks[6].got, sinks[7].got)
	}
	st := meshes[0].Stats()
	if st.DirectBroadcasts != 1 {
		t.Errorf("direct broadcasts = %d, want 1", st.DirectBroadcasts)
	}
	// Direct routes are single hops: exactly one send per destination.
	if st.Sends != 2 {
		t.Errorf("sends = %d, want 2 single-hop sends", st.Sends)
	}
}

func TestRoutesNeverRelayThroughDeadNodes(t *testing.T) {
	alive := []bool{true, false, true, true, true, true, true, false}
	plan := planRoutes(alive, []int{3, 4, 6})
	for d, route := range plan.routes {
		if route[len(route)-1] != d {
			t.Errorf("route to %d ends at %d", d, route[len(route)-1])
		}
		for _, hop := range route {
			if !alive[hop] {
				t.Errorf("route to %d relays through dead node %d: %v", d, hop, route)
			}
		}
	}
	// Orphans: 3 and 4 (parent 1 dead).
	if plan.reparents != 2 {
		t.Errorf("reparents = %d, want 2", plan.reparents)
	}
	if plan.direct {
		t.Error("6/8 alive should keep the tree")
	}
}

// Chaos decisions must be pure functions of identity — independent of call
// order and of wall time.
func TestChaosDecisionsDeterministic(t *testing.T) {
	c := &ChaosPlan{Seed: 42, Drop: 0.3, Dup: 0.3, Reorder: 0.3, DelayMax: time.Millisecond}
	lk := meshLink{src: 0, dst: 5}
	type fate struct {
		drop, dup bool
		delay     time.Duration
	}
	read := func() []fate {
		var out []fate
		for seq := uint64(0); seq < 64; seq++ {
			for attempt := 1; attempt <= 3; attempt++ {
				out = append(out, fate{c.lost(saltDrop, lk, seq, attempt), c.dup(lk, seq, attempt), c.delay(lk, seq, attempt)})
			}
		}
		return out
	}
	a, b := read(), read()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across reads: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The fates must actually vary (the hash is not constant).
	drops := 0
	for _, f := range a {
		if f.drop {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("drop rolls degenerate: %d/%d", drops, len(a))
	}
}

func TestChaosPlanValidate(t *testing.T) {
	bad := []*ChaosPlan{
		{Drop: 1.0},
		{Dup: -0.1},
		{Reorder: 1.5},
		{DelayMax: -time.Second},
		{Partitions: []Partition{{A: 0, B: 1, AfterSends: -1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("plan %d should fail validation: %+v", i, c)
		}
		if _, err := NewChaos(c, nil); err == nil {
			t.Errorf("NewChaos accepted invalid plan %d", i)
		}
	}
	ok := &ChaosPlan{Seed: 1, Drop: 0.5, Dup: 0.5, Reorder: 0.9, DelayMax: time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (*ChaosPlan)(nil).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestRetransmitPolicyWaitForCaps(t *testing.T) {
	rp := RetransmitPolicy{Timeout: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := rp.WaitFor(i + 1); got != w {
			t.Errorf("waitFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Huge attempt counts must stay at the cap, not wrap.
	for _, attempt := range []int{32, 63, 64, 1 << 20} {
		if got := rp.WaitFor(attempt); got != 8*time.Millisecond {
			t.Errorf("waitFor(%d) = %v, want cap", attempt, got)
		}
	}
	var zero RetransmitPolicy
	if zero.WaitFor(1) != defaultTimeout || zero.WaitFor(1000) != defaultMaxBackoff {
		t.Errorf("zero policy defaults wrong: %v, %v", zero.WaitFor(1), zero.WaitFor(1000))
	}
}

// Full-chaos soak: drops + dups + delays + reorders + a partition, many
// rounds, and delivery still happens exactly once per payload per round.
func TestChaosSoakDeliversExactlyOnce(t *testing.T) {
	const rounds = 6
	meshes, sinks, _ := chaosHub(t, 8, &ChaosPlan{
		Seed: 99, Drop: 0.25, Dup: 0.25, Reorder: 0.3, DelayMax: 100 * time.Microsecond,
		Partitions: []Partition{{A: 0, B: 2, AfterSends: 2, Sends: 4}},
	}, RetransmitPolicy{Timeout: 300 * time.Microsecond, MaxBackoff: 3 * time.Millisecond})
	for round := 0; round < rounds; round++ {
		mustBroadcast(t, meshes[0], "soak", allItems(8))
	}
	// Late duplicate copies must dedup, never deliver: give the copies
	// still in flight (delays stay under 2×DelayMax) time to land, then
	// close the ports, which cancels any straggler, before counting.
	time.Sleep(20 * time.Millisecond)
	for _, m := range meshes {
		_ = m.Close()
	}
	checkRounds(t, sinks, "soak", rounds)
}

// After Recycle, meshes reused for a new job accept re-broadcasts cleanly
// (fresh sequence and dedup state) while cumulative stats keep counting —
// the contract a runtime recycled between scheduler jobs relies on.
func TestRecycleResetsPerJobState(t *testing.T) {
	meshes, sinks, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	mustBroadcast(t, meshes[0], "job1", allItems(8))
	for _, m := range meshes {
		m.Recycle()
	}
	mustBroadcast(t, meshes[0], "job2", allItems(8))
	checkRounds(t, sinks, "job1", 1)
	checkRounds(t, sinks, "job2", 1)
	if st := meshes[0].Stats(); st.Sends != 26 || st.Dedups != 0 {
		t.Errorf("stats after recycle = %+v, want 26 cumulative sends, 0 dedups", st)
	}
}

// Meshes given one registry record the shared xport_* aggregate families —
// the ones rt.Stats reads — and Stats reads them back.
func TestSharedRegistryServesTransportCounters(t *testing.T) {
	meshes, sinks, reg := chaosHub(t, 8, nil, RetransmitPolicy{})
	mustBroadcast(t, meshes[0], "b", allItems(8))
	checkRounds(t, sinks, "b", 1)

	st := meshes[0].Stats()
	vals := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if len(f.Series) == 1 && len(f.Series[0].Labels) == 0 {
			vals[f.Name] = f.Series[0].Value
		}
	}
	if st.Sends != 13 {
		t.Fatalf("sends = %d, want 13 (binary tree over 7 destinations)", st.Sends)
	}
	for name, got := range map[string]int64{
		metrics.NameXportSends:            st.Sends,
		metrics.NameXportRetransmits:      st.Retransmits,
		metrics.NameXportDrops:            st.Drops,
		metrics.NameXportDedups:           st.Dedups,
		metrics.NameXportReparents:        st.Reparents,
		metrics.NameXportDirectBroadcasts: st.DirectBroadcasts,
	} {
		if v, ok := vals[name]; !ok || v != got {
			t.Errorf("registry %s = %d (registered %v), Stats = %d", name, v, ok, got)
		}
	}
	// Fault-free binary broadcast over 8 nodes: depth(1..7) = max 3 hops.
	if d := vals[metrics.NameXportTreeDepth]; d != 3 {
		t.Errorf("tree depth gauge = %d, want 3", d)
	}
}

// Without a registry each mesh counts into a private one: Stats keeps
// working and no shared state leaks between meshes.
func TestPrivateRegistriesAreIsolated(t *testing.T) {
	m1, _ := loopbackMesh(t, 4)
	m2, _ := loopbackMesh(t, 4)
	mustBroadcast(t, m1[0], "b", allItems(4))
	if s1, s2 := m1[0].Stats(), m2[0].Stats(); s1.Sends == 0 || s2.Sends != 0 {
		t.Errorf("private counters leaked: m1=%+v m2=%+v", s1, s2)
	}
}

func TestShapeReflectsLiveness(t *testing.T) {
	meshes, _, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	m := meshes[0]
	if sh := m.Shape(); sh.Live != 8 || sh.Direct || sh.Depth != 3 {
		t.Errorf("healthy shape = %+v, want live=8 depth=3 tree mode", sh)
	}
	// Node 1's subtree (3 and its children) re-parents through node 0.
	m.MarkDead(1)
	sh := m.Shape()
	if sh.Live != 7 {
		t.Errorf("live = %d after one death, want 7", sh.Live)
	}
	if sh.Parents[1] != -1 {
		t.Errorf("dead node 1 has parent %d, want -1", sh.Parents[1])
	}
	if sh.Parents[3] != 0 {
		t.Errorf("orphan 3 re-parented to %d, want 0", sh.Parents[3])
	}
	// Kill most of the cluster: broadcasts go direct.
	for n := 2; n < 8; n++ {
		m.MarkDead(n)
	}
	if sh = m.Shape(); !sh.Direct || sh.Live != 1 {
		t.Errorf("degraded shape = %+v, want direct mode with 1 live node", sh)
	}
}

func TestProbeFaultFree(t *testing.T) {
	meshes, _, _ := chaosHub(t, 8, nil, RetransmitPolicy{})
	for n := 1; n < 8; n++ {
		if !meshes[0].Probe(n, 1) {
			t.Fatalf("fault-free probe of node %d failed", n)
		}
	}
	if meshes[0].Probe(0, 3) {
		t.Fatal("probing the observer should report false")
	}
	if meshes[0].Probe(8, 3) || meshes[0].Probe(-1, 3) {
		t.Fatal("out-of-range probe should report false")
	}
}

// A partition window over the 0<->1 link fails probes of node 1 while it
// lasts; every ping advances the probe partition clock, so it always heals.
func TestProbePartitionStarvesAndHeals(t *testing.T) {
	meshes, _, _ := chaosHub(t, 4, &ChaosPlan{
		Seed:       7,
		Partitions: []Partition{{A: 0, B: 1, AfterSends: 0, Sends: 10}},
	}, fastRetransmit)
	fails := 0
	for i := 0; i < 20; i++ {
		if !meshes[0].Probe(1, 2) {
			fails++
		}
	}
	// Ten cut pings at two attempts per probe: the first five probes fail.
	if fails != 5 {
		t.Fatalf("partitioned link failed %d probes, want 5", fails)
	}
	if !meshes[0].Probe(1, 2) {
		t.Fatal("probe still failing after the partition window healed")
	}
	if got := meshes[0].Stats().Drops; got != 10 {
		t.Fatalf("drops = %d, want the 10 cut pings", got)
	}
}

// A destination marked dead must stay probeable — that is how a rejoin is
// detected.
func TestProbeDeadDestinationReachable(t *testing.T) {
	meshes, _, _ := chaosHub(t, 4, nil, RetransmitPolicy{})
	meshes[0].MarkDead(2)
	if !meshes[0].Probe(2, 1) {
		t.Fatal("dead destination should still answer a fault-free probe")
	}
}

// With a lossy plan, the sequence of probe outcomes is a pure function of
// the plan and the probe order.
func TestProbeDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		meshes, _, _ := chaosHub(t, 8, &ChaosPlan{Seed: 42, Drop: 0.4}, fastRetransmit)
		var out []bool
		for i := 0; i < 50; i++ {
			out = append(out, meshes[0].Probe(1+i%7, 2))
		}
		return out
	}
	first := run()
	sawFail := false
	for _, ok := range first {
		if !ok {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("lossy plan never failed a probe; schedule too weak")
	}
	for i := 0; i < 4; i++ {
		got := run()
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d probe %d outcome %v differs from first run %v", i, j, got[j], first[j])
			}
		}
	}
}

// Interleaving broadcasts between probes must not change probe outcomes —
// probe traffic has its own sequence numbers and partition clock.
func TestProbeIndependentOfDataTraffic(t *testing.T) {
	plan := &ChaosPlan{Seed: 99, Drop: 0.4, Partitions: []Partition{{A: 0, B: 1, AfterSends: 3, Sends: 6}}}
	run := func(data bool) []bool {
		meshes, _, _ := chaosHub(t, 4, plan, fastRetransmit)
		var out []bool
		for i := 0; i < 20; i++ {
			if data {
				mustBroadcast(t, meshes[0], "data", []Item{{Dst: 1, Payload: []byte{byte(i)}}})
			}
			out = append(out, meshes[0].Probe(1, 2))
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d outcome changed when data traffic interleaved: %v vs %v", i, a[i], b[i])
		}
	}
}
