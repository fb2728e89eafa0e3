package wire

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/domain"
)

// sink collects deliveries for one mesh node.
type sink struct {
	mu   sync.Mutex
	got  []string // "tag:payload" in arrival order
	tags map[string]int
}

func newSink() *sink { return &sink{tags: map[string]int{}} }

func (s *sink) deliver(node int, tag string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, tag+":"+string(payload))
	s.tags[tag]++
}

func (s *sink) count(tag string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tags[tag]
}

// loopbackMesh builds an n-node loopback mesh; returns the meshes and each
// node's sink.
func loopbackMesh(t *testing.T, n int) ([]*Mesh, []*sink) {
	t.Helper()
	hub := NewHub()
	meshes := make([]*Mesh, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = newSink()
		m, err := NewMesh(MeshConfig{
			Self: i, Nodes: n, Fabric: hub.Fabric(i),
			Deliver: sinks[i].deliver,
			Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
				if task == "boom" {
					return nil, errors.New("task exploded")
				}
				return []byte(fmt.Sprintf("%s@%d", task, point.X())), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return meshes, sinks
}

func TestMeshBroadcastDeliversExactlyOnce(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 7)
	items := make([]Item, 0, 6)
	for d := 1; d < 7; d++ {
		items = append(items, Item{Dst: d, Payload: []byte(fmt.Sprintf("p%d", d))})
	}
	meshes[0].Broadcast("launch", items)
	for d := 1; d < 7; d++ {
		if got := sinks[d].count("launch"); got != 1 {
			t.Fatalf("node %d got %d deliveries, want 1", d, got)
		}
		want := fmt.Sprintf("launch:p%d", d)
		if sinks[d].got[0] != want {
			t.Fatalf("node %d got %q, want %q", d, sinks[d].got[0], want)
		}
	}
	if got := sinks[0].count("launch"); got != 0 {
		t.Fatalf("origin received its own broadcast %d times", got)
	}
	st := meshes[0].Stats()
	if st.Sends == 0 {
		t.Fatal("origin recorded no sends")
	}
}

func TestMeshReparentsAroundDeadRelay(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 7)
	// Node 1 relays to 3 and 4 in the full tree; kill it and its subtree
	// must still be reached (via re-parenting onto node 0).
	meshes[0].MarkDead(1)
	items := []Item{{Dst: 3, Payload: []byte("x")}, {Dst: 4, Payload: []byte("y")}}
	meshes[0].Broadcast("reparented", items)
	if sinks[3].count("reparented") != 1 || sinks[4].count("reparented") != 1 {
		t.Fatalf("orphaned subtree missed the broadcast: %v %v", sinks[3].tags, sinks[4].tags)
	}
	if sinks[1].count("reparented") != 0 {
		t.Fatal("dead node received traffic")
	}
	if meshes[0].Stats().Reparents == 0 {
		t.Fatal("no reparents recorded")
	}
	sh := meshes[0].Shape()
	if sh.Live != 6 {
		t.Fatalf("shape reports %d live, want 6", sh.Live)
	}
	meshes[0].MarkAlive(1)
	if meshes[0].Shape().Live != 7 {
		t.Fatal("MarkAlive did not readmit node")
	}
}

func TestMeshDirectBroadcastUnderMassFailure(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 8)
	for _, d := range []int{1, 2, 3, 5, 6, 7} {
		meshes[0].MarkDead(d)
	}
	meshes[0].Broadcast("direct", []Item{{Dst: 4, Payload: []byte("z")}})
	if sinks[4].count("direct") != 1 {
		t.Fatal("survivor missed direct broadcast")
	}
	if meshes[0].Stats().DirectBroadcasts == 0 {
		t.Fatal("direct-send degradation not recorded")
	}
}

func TestMeshProbeAndRTT(t *testing.T) {
	meshes, _ := loopbackMesh(t, 3)
	if !meshes[0].Probe(2, 3) {
		t.Fatal("probe to live peer failed")
	}
	if meshes[0].Probe(0, 1) {
		t.Fatal("self-probe should fail")
	}
	if meshes[0].Probe(99, 1) {
		t.Fatal("out-of-range probe should fail")
	}
}

// checkGoroutinesExit fails t unless the goroutine count falls back to
// before within a deadline: once its meshes are closed, nothing a test
// started may outlive it.
func checkGoroutinesExit(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Mesh.Close, %d before the meshes", n, before)
	}
}

func TestMeshExec(t *testing.T) {
	before := runtime.NumGoroutine()
	meshes, _ := loopbackMesh(t, 3)
	val, err := meshes[0].Exec(2, "square", domain.Pt1(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "square@12" {
		t.Fatalf("got %q", val)
	}
	// A task error is a task error, not unreachability.
	_, err = meshes[0].Exec(1, "boom", domain.Pt1(0), nil)
	if err == nil || errors.Is(err, ErrUnreachable) {
		t.Fatalf("task failure reported as %v", err)
	}
	// Out-of-range destinations are unreachable.
	if _, err := meshes[0].Exec(99, "square", domain.Pt1(0), nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	for _, m := range meshes {
		_ = m.Close()
	}
	checkGoroutinesExit(t, before)
}

func TestMeshExecConcurrent(t *testing.T) {
	meshes, _ := loopbackMesh(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := 1 + i%3
			val, err := meshes[0].Exec(dst, "t", domain.Pt1(int64(i)), nil)
			if err != nil {
				errs <- err
				return
			}
			if want := fmt.Sprintf("t@%d", i); string(val) != want {
				errs <- fmt.Errorf("got %q want %q", val, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMeshRecycleResetsSequences(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 2)
	meshes[0].Broadcast("a", []Item{{Dst: 1, Payload: []byte("1")}})
	meshes[0].Broadcast("a", []Item{{Dst: 1, Payload: []byte("2")}})
	// Recycle on the sender only: the receiver learns the new generation
	// from the next frame and resets its dedup state, so the repeated
	// sequence numbers are NOT treated as duplicates.
	meshes[0].Recycle()
	meshes[0].Broadcast("b", []Item{{Dst: 1, Payload: []byte("3")}})
	meshes[0].Broadcast("b", []Item{{Dst: 1, Payload: []byte("4")}})
	if got := sinks[1].count("a") + sinks[1].count("b"); got != 4 {
		t.Fatalf("got %d deliveries across recycle, want 4", got)
	}
}

func TestMeshStaleGenerationIsDuplicate(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 2)
	meshes[0].Broadcast("fresh", []Item{{Dst: 1, Payload: []byte("x")}})
	// Hand-deliver a frame from an older generation: it must be swallowed.
	stale := &Frame{Kind: KindData, Src: 0, Dst: 1, Seq: 99, Gen: 0, Route: []int{1}, Tag: "stale", Body: []byte("y")}
	meshes[1].handleFrame(stale)
	if sinks[1].count("stale") != 0 {
		t.Fatal("stale-generation frame was delivered")
	}
	if meshes[1].Stats().Dedups == 0 {
		t.Fatal("stale frame not counted as dedup")
	}
}

func TestMeshRetransmitsUntilAcked(t *testing.T) {
	// A fabric that drops the first transmission of every data frame: the
	// ack-timeout ladder must retransmit and the broadcast still complete.
	hub := NewHub()
	drop := &firstDropFabric{inner: hub.Fabric(0)}
	s1 := newSink()
	m0, err := NewMesh(MeshConfig{Self: 0, Nodes: 2, Fabric: drop,
		Retransmit: RetransmitPolicy{Timeout: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m1, err := NewMesh(MeshConfig{Self: 1, Nodes: 2, Fabric: hub.Fabric(1), Deliver: s1.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()

	done := make(chan struct{})
	go func() {
		m0.Broadcast("lossy", []Item{{Dst: 1, Payload: []byte("p")}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast never completed over lossy fabric")
	}
	if s1.count("lossy") != 1 {
		t.Fatalf("got %d deliveries, want 1", s1.count("lossy"))
	}
	if m0.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded despite drops")
	}
}

// firstDropFabric swallows the first transmission of every distinct data
// frame (keyed by seq) and forwards everything else.
type firstDropFabric struct {
	inner Fabric
	mu    sync.Mutex
	seen  map[uint64]bool
}

func (f *firstDropFabric) Send(dst int, fr *Frame) error {
	if fr.Kind == KindData {
		f.mu.Lock()
		if f.seen == nil {
			f.seen = map[uint64]bool{}
		}
		first := !f.seen[fr.Seq]
		f.seen[fr.Seq] = true
		f.mu.Unlock()
		if first {
			return nil // dropped on the floor
		}
	}
	return f.inner.Send(dst, fr)
}

func (f *firstDropFabric) SetReceiver(fn func(*Frame)) { f.inner.SetReceiver(fn) }
func (f *firstDropFabric) Peers() []PeerStatus         { return f.inner.Peers() }
func (f *firstDropFabric) Close() error                { return f.inner.Close() }

func TestMeshPeersSorted(t *testing.T) {
	meshes, _ := loopbackMesh(t, 4)
	peers := meshes[2].Peers()
	if len(peers) != 3 {
		t.Fatalf("got %d peers, want 3", len(peers))
	}
	want := []int{0, 1, 3}
	for i, p := range peers {
		if p.Node != want[i] {
			t.Fatalf("peer order %v", peers)
		}
	}
}

// A delayed ack from before a Recycle must not complete a newer send that
// reuses its sequence number: acks are fenced by delivery generation.
func TestMeshStaleGenerationAckIgnored(t *testing.T) {
	hub := NewHub()
	// The first transmission of seq 0 is lost and the retransmit timer is
	// an hour away, so only hand-delivered acks can complete the send.
	lossy := &firstDropFabric{inner: hub.Fabric(0)}
	m0, err := NewMesh(MeshConfig{Self: 0, Nodes: 2, Fabric: lossy,
		Retransmit: RetransmitPolicy{Timeout: time.Hour, MaxBackoff: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m1, err := NewMesh(MeshConfig{Self: 1, Nodes: 2, Fabric: hub.Fabric(1), Deliver: newSink().deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()

	m0.Recycle() // generation 2: sequence numbers restart at 0
	done := make(chan error, 1)
	go func() { done <- m0.Broadcast("new", []Item{{Dst: 1, Payload: []byte("x")}}) }()
	waiting := func() bool {
		m0.mu.Lock()
		defer m0.mu.Unlock()
		_, ok := m0.ackWait[meshLink{src: 0, dst: 1}][0]
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); !waiting(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("seq-0 send never started waiting for its ack")
		}
	}

	m0.handleFrame(&Frame{Kind: KindAck, Src: 1, Dst: 0, Seq: 0, Gen: 1})
	select {
	case err := <-done:
		t.Fatalf("a generation-1 ack completed the generation-2 send (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if !waiting() {
		t.Fatal("stale ack consumed the waiting send's ack slot")
	}

	m0.handleFrame(&Frame{Kind: KindAck, Src: 1, Dst: 0, Seq: 0, Gen: 2})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the matching-generation ack did not complete the send")
	}
}

// A payload too large for one frame fails the broadcast up front instead of
// being rejected by the receiver and retransmitted forever.
func TestMeshBroadcastRejectsOversizeFrame(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 3)
	items := []Item{
		{Dst: 1, Payload: []byte("fits")},
		{Dst: 2, Payload: make([]byte, MaxFrameSize)},
	}
	done := make(chan error, 1)
	go func() { done <- meshes[0].Broadcast("big", items) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversize broadcast returned %v, want ErrTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversize broadcast hung")
	}
	if sinks[1].count("big")+sinks[2].count("big") != 0 {
		t.Fatal("a failed broadcast delivered items")
	}
	if st := meshes[0].Stats(); st.Sends != 0 {
		t.Fatalf("a failed broadcast sent %d frames", st.Sends)
	}
}

// Recycle resets send state only: a recycled receiver still recognizes a
// late copy of an old-generation frame it already delivered.
func TestMeshRecycledReceiverStillDedupsLateCopy(t *testing.T) {
	meshes, sinks := loopbackMesh(t, 2)
	mustBroadcast(t, meshes[0], "old", []Item{{Dst: 1, Payload: []byte("x")}})
	for _, m := range meshes {
		m.Recycle()
	}
	late := &Frame{Kind: KindData, Src: 0, Dst: 1, Seq: 0, Gen: 1, Key: 1, Route: []int{1}, Tag: "old", Body: []byte("x")}
	meshes[1].handleFrame(late)
	if got := sinks[1].count("old"); got != 1 {
		t.Fatalf("late copy delivered again after Recycle: %d deliveries", got)
	}
	mustBroadcast(t, meshes[0], "new", []Item{{Dst: 1, Payload: []byte("y")}})
	if got := sinks[1].count("new"); got != 1 {
		t.Fatalf("new-generation broadcast delivered %d times, want 1", got)
	}
}
