package wire

import (
	"fmt"
	"testing"
	"time"

	"indexlaunch/internal/domain"
)

// proxiedPair builds a 2-node TCP mesh where node 0 reaches node 1 only
// through a chaos proxy running plan.
func proxiedPair(t *testing.T, plan *ChaosPlan) ([]*Mesh, *sink, *Proxy) {
	t.Helper()
	// Short handshake timeout: the plan drops Hello/Welcome frames too, and
	// an abandoned handshake must cost milliseconds, not the 5s default.
	worker, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0",
		DialBackoff: 5 * time.Millisecond, HandshakeTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy("127.0.0.1:0", worker.Addr(), plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	launcher, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: proxy.Addr()}, Epoch: 1,
		DialBackoff: 5 * time.Millisecond, HandshakeTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	rp := RetransmitPolicy{Timeout: 15 * time.Millisecond, MaxBackoff: 120 * time.Millisecond}
	s := newSink()
	m0, err := NewMesh(MeshConfig{Self: 0, Nodes: 2, Fabric: launcher, Retransmit: rp, ExecTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m0.Close() })
	m1, err := NewMesh(MeshConfig{Self: 1, Nodes: 2, Fabric: worker, Retransmit: rp,
		Deliver: s.deliver,
		Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
			return []byte(fmt.Sprintf("%s@%d", task, point.X())), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m1.Close() })
	return []*Mesh{m0, m1}, s, proxy
}

func TestProxyForwardsFaithfullyWithNilPlan(t *testing.T) {
	meshes, s, proxy := proxiedPair(t, nil)
	done := make(chan struct{})
	go func() {
		meshes[0].Broadcast("clean", []Item{{Dst: 1, Payload: []byte("x")}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("broadcast through idle proxy never completed")
	}
	if s.count("clean") != 1 {
		t.Fatalf("got %d deliveries", s.count("clean"))
	}
	if proxy.Dropped() != 0 {
		t.Fatalf("nil plan dropped %d frames", proxy.Dropped())
	}
}

// The acceptance-criterion scenario: a partition window severs the pair
// mid-run; retransmission rides it out and delivery still completes exactly
// once.
func TestProxyPartitionSurvivedByRetransmit(t *testing.T) {
	plan := &ChaosPlan{Partitions: []Partition{
		// Let the handshake and a little traffic through, then cut the next
		// 20 frames in each direction.
		{A: 0, B: 1, AfterSends: 4, Sends: 20},
	}}
	meshes, s, proxy := proxiedPair(t, plan)

	done := make(chan struct{})
	go func() {
		for i := 0; i < 8; i++ {
			meshes[0].Broadcast("part", []Item{{Dst: 1, Payload: []byte{byte(i)}}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("broadcasts never completed through the partition")
	}
	if got := s.count("part"); got != 8 {
		t.Fatalf("got %d deliveries, want 8 (dedup across retransmits failed?)", got)
	}
	if proxy.Dropped() == 0 {
		t.Fatal("partition window never fired — test exercised nothing")
	}
	if meshes[0].Stats().Retransmits == 0 {
		t.Fatal("partition survived without retransmissions?")
	}
}

func TestProxyRandomDropSurvivedByRetransmit(t *testing.T) {
	plan := &ChaosPlan{Seed: 42, Drop: 0.3}
	meshes, s, proxy := proxiedPair(t, plan)

	done := make(chan struct{})
	go func() {
		meshes[0].Broadcast("lossy", []Item{
			{Dst: 1, Payload: []byte("a")},
		})
		for i := 0; i < 4; i++ {
			meshes[0].Broadcast("lossy", []Item{{Dst: 1, Payload: []byte{byte(i)}}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("broadcasts never completed under 30% drop")
	}
	if got := s.count("lossy"); got != 5 {
		t.Fatalf("got %d deliveries, want 5", got)
	}
	t.Logf("proxy dropped %d frames; sender retransmitted %d times",
		proxy.Dropped(), meshes[0].Stats().Retransmits)
}

func TestProxyExecThroughChaos(t *testing.T) {
	plan := &ChaosPlan{Seed: 7, Drop: 0.25, DelayMax: 2 * time.Millisecond}
	meshes, _, _ := proxiedPair(t, plan)
	for i := int64(0); i < 5; i++ {
		val, err := meshes[0].Exec(1, "job", domain.Pt1(i), nil)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if want := fmt.Sprintf("job@%d", i); string(val) != want {
			t.Fatalf("exec %d: got %q want %q", i, val, want)
		}
	}
}
