package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
)

// Mesh is the runtime's one reliable-delivery engine. Broadcasts from node
// 0 route through the binary broadcast tree (tree.go — re-parenting around
// dead relays and the direct-send degradation), every hop is covered by
// ack/timeout retransmission on the RetransmitPolicy ladder, receivers
// deduplicate by per-link sequence number, relays ack upstream only after
// their downstream hop acked, and Broadcast returns only when every payload
// has been delivered exactly once. Ping/Pong heartbeats carry the failure
// detector's probes, and Exec/Result frames run task bodies remotely (what
// cmd/idxnode serves).
//
// One Mesh instance runs per node, all over the same Fabric kind: the
// in-process runtime puts every node's mesh on one loopback Hub (wrapped
// by a Chaos decorator when a ChaosPlan is set), a cluster puts one mesh
// in each process over TCP. The mesh does not care which — loss,
// duplication and reordering are recovered identically.

// RetransmitPolicy tunes the per-hop ack-timeout ladder.
type RetransmitPolicy struct {
	// Timeout is the ack wait before the first retransmission; each
	// further attempt doubles it. Zero defaults to 1ms.
	Timeout time.Duration
	// MaxBackoff caps the doubling; zero defaults to 16ms.
	MaxBackoff time.Duration
}

const (
	defaultTimeout    = time.Millisecond
	defaultMaxBackoff = 16 * time.Millisecond
)

// WaitFor returns the capped ack timeout for the given 1-based attempt.
func (rp RetransmitPolicy) WaitFor(attempt int) time.Duration {
	base := rp.Timeout
	if base <= 0 {
		base = defaultTimeout
	}
	max := rp.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift >= 63 {
		return max
	}
	d := base << shift
	if d <= 0 || d > max || d>>shift != base {
		return max
	}
	return d
}

// MeshConfig configures a Mesh.
type MeshConfig struct {
	// Self is this process's node id; node 0 is the broadcast origin.
	Self int
	// Nodes is the mesh size (node ids 0..Nodes-1).
	Nodes int
	// Fabric carries encoded frames; required.
	Fabric Fabric
	// Retransmit tunes the per-hop ack-timeout ladder; the zero value uses
	// the defaults.
	Retransmit RetransmitPolicy
	// Prof records send/recv/retransmit spans (byte counts ride the tag);
	// nil disables profiling.
	Prof *obs.Recorder
	// Metrics receives the delivery aggregates (the shared xport_*
	// families rt.Stats reads) and the wire_* codec, exec and per-peer
	// families; nil keeps them in a private registry so Stats always works.
	Metrics *metrics.Registry
	// Deliver receives each broadcast payload exactly once at its
	// destination node. May be called from fabric goroutines.
	Deliver func(node int, tag string, payload []byte)
	// Exec serves inbound remote-execution requests (idxnode's task
	// registry); nil rejects them.
	Exec func(task string, point domain.Point, args []byte) ([]byte, error)
	// ExecTimeout bounds one remote execution round trip; zero defaults
	// to 30s.
	ExecTimeout time.Duration
}

// ErrUnreachable marks a remote execution that failed at the transport
// layer (peer never answered) rather than in the task body — callers fall
// back to local execution on it.
var ErrUnreachable = errors.New("wire: peer unreachable")

// ErrClosed marks a broadcast abandoned because the mesh closed before
// every hop was acked.
var ErrClosed = errors.New("wire: mesh closed")

type meshLink struct{ src, dst int }

// Mesh implements reliable tree-routed delivery over a Fabric.
type Mesh struct {
	self  int
	nodes int
	fab   Fabric
	rp    RetransmitPolicy
	prof  *obs.Recorder
	mx    *wireMetrics
	reg   *metrics.Registry

	execFn      func(task string, point domain.Point, args []byte) ([]byte, error)
	execTimeout time.Duration

	mu       sync.Mutex
	alive    []bool
	gen      uint64 // delivery generation, bumped by Recycle
	nextSeq  map[meshLink]uint64
	seen     map[meshLink]map[uint64]struct{}
	seenGen  map[meshLink]uint64 // generation the link's seen-set belongs to
	inflight map[meshLink]map[uint64]struct{}
	ackWait  map[meshLink]map[uint64]ackWaiter

	pingSeq  uint64
	pingWait map[uint64]chan struct{}

	execSeq  uint64
	execWait map[uint64]chan execResult

	deliver func(node int, tag string, payload []byte)

	closed chan struct{}
}

// ackWaiter is one reliable send awaiting its hop ack. gen is the frame's
// delivery generation: only an ack echoing it completes the send, so a
// delayed ack from before a Recycle cannot complete a newer send that
// reuses its sequence number.
type ackWaiter struct {
	gen uint64
	ch  chan struct{}
}

type execResult struct {
	val []byte
	err string
	ok  bool
}

// NewMesh creates a mesh node over the given fabric and installs its frame
// receiver.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("wire: mesh requires >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("wire: mesh self %d out of range [0, %d)", cfg.Self, cfg.Nodes)
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("wire: MeshConfig.Fabric is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Mesh{
		self:        cfg.Self,
		nodes:       cfg.Nodes,
		fab:         cfg.Fabric,
		rp:          cfg.Retransmit,
		prof:        cfg.Prof,
		mx:          newWireMetrics(reg),
		reg:         reg,
		execFn:      cfg.Exec,
		execTimeout: cfg.ExecTimeout,
		alive:       make([]bool, cfg.Nodes),
		gen:         1,
		nextSeq:     map[meshLink]uint64{},
		seen:        map[meshLink]map[uint64]struct{}{},
		seenGen:     map[meshLink]uint64{},
		inflight:    map[meshLink]map[uint64]struct{}{},
		ackWait:     map[meshLink]map[uint64]ackWaiter{},
		pingWait:    map[uint64]chan struct{}{},
		execWait:    map[uint64]chan execResult{},
		deliver:     cfg.Deliver,
		closed:      make(chan struct{}),
	}
	if m.execTimeout <= 0 {
		m.execTimeout = 30 * time.Second
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	if a, ok := cfg.Fabric.(interface{ attach(*wireMetrics) }); ok {
		a.attach(m.mx)
	}
	cfg.Fabric.SetReceiver(m.handleFrame)
	return m, nil
}

// Nodes returns the mesh size.
func (m *Mesh) Nodes() int { return m.nodes }

// Self returns this process's node id.
func (m *Mesh) Self() int { return m.self }

// Metrics returns the registry the mesh records into.
func (m *Mesh) Metrics() *metrics.Registry { return m.reg }

// Peers returns the fabric's peer table for /statusz.
func (m *Mesh) Peers() []PeerStatus { return m.fab.Peers() }

// MarkDead removes a node from routing: future broadcasts re-parent its
// orphaned subtree onto surviving ancestors. In-flight frames are not
// recalled — the caller serializes MarkDead against Broadcast.
func (m *Mesh) MarkDead(node int) {
	if node < 0 || node >= m.nodes {
		return
	}
	m.mu.Lock()
	m.alive[node] = false
	m.mu.Unlock()
}

// MarkAlive readmits a node to routing.
func (m *Mesh) MarkAlive(node int) {
	if node < 0 || node >= m.nodes {
		return
	}
	m.mu.Lock()
	m.alive[node] = true
	m.mu.Unlock()
}

// Shape reports the broadcast tree's shape under the current liveness
// snapshot.
func (m *Mesh) Shape() TreeShape {
	m.mu.Lock()
	alive := make([]bool, len(m.alive))
	copy(alive, m.alive)
	m.mu.Unlock()
	return shapeOf(alive)
}

// Stats is a snapshot of the delivery counters in the mesh's registry.
// Meshes sharing a registry (the in-process runtime's hub) share them.
type Stats struct {
	// Sends counts hop-level first transmissions; Retransmits counts
	// ack-timeout-driven re-sends on top of them.
	Sends       int64
	Retransmits int64
	// Drops counts transmissions a Chaos decorator recording into the
	// same registry discarded.
	Drops int64
	// Dedups counts received duplicates suppressed by sequence numbers.
	Dedups int64
	// Reparents counts orphan adoptions (live nodes routed through a
	// surviving ancestor because their parent is dead), per broadcast;
	// DirectBroadcasts counts broadcasts that abandoned a degraded tree
	// for direct node-0 sends.
	Reparents        int64
	DirectBroadcasts int64
}

// Stats snapshots the delivery counters.
func (m *Mesh) Stats() Stats {
	return Stats{
		Sends:            m.mx.sends.Value(),
		Retransmits:      m.mx.retransmits.Value(),
		Drops:            m.mx.drops.Value(),
		Dedups:           m.mx.dedups.Value(),
		Reparents:        m.mx.reparents.Value(),
		DirectBroadcasts: m.mx.directs.Value(),
	}
}

// Recycle clears the per-session send state by bumping the delivery
// generation: sequence numbers restart cleanly between scheduler jobs
// without a cross-process round trip, and acks are fenced by generation so
// a late ack never completes a newer send. Receive state is left alone: a
// receiver replaces a link's dedup set when the first frame of a newer
// generation arrives, and until then the old set is what marks a late
// copy of an old frame as a duplicate — clearing it here would let that
// copy deliver again. The caller must be quiescent (no Broadcast or Probe
// in flight).
func (m *Mesh) Recycle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.nextSeq = map[meshLink]uint64{}
	m.ackWait = map[meshLink]map[uint64]ackWaiter{}
}

// Close tears the mesh (and its fabric) down.
func (m *Mesh) Close() error {
	select {
	case <-m.closed:
	default:
		close(m.closed)
	}
	return m.fab.Close()
}

// Broadcast ships every item from node 0 through the broadcast tree and
// blocks until each payload has been delivered (and acked) exactly once.
// Destinations must be live, non-zero nodes; only node 0 broadcasts. An
// item whose frame would exceed MaxFrameSize fails the whole broadcast
// with ErrTooLarge before anything is sent (a receiver would reject the
// frame and the hop would retransmit forever); a mesh closed mid-broadcast
// fails it with ErrClosed.
func (m *Mesh) Broadcast(tag string, items []Item) error {
	return m.BroadcastTraced(obs.TraceRef{}, tag, items)
}

// BroadcastTraced is Broadcast with a span context riding the frame
// headers; every hop records a send span whose tag carries the frame's
// payload byte count.
func (m *Mesh) BroadcastTraced(tc obs.TraceRef, tag string, items []Item) error {
	if len(items) == 0 {
		return nil
	}
	m.mu.Lock()
	alive := make([]bool, len(m.alive))
	copy(alive, m.alive)
	gen := m.gen
	m.mu.Unlock()

	dsts := make([]int, len(items))
	for i, it := range items {
		dsts[i] = it.Dst
	}
	plan := planRoutes(alive, dsts)
	frames := make([]*Frame, len(items))
	depth := 0
	for i, it := range items {
		f := &Frame{
			Kind: KindData, Src: m.self, Gen: gen, Key: uint64(i + 1), TC: tc,
			Route: plan.routes[it.Dst], Tag: tag, Body: it.Payload,
		}
		f.Dst = f.Route[0]
		// The first hop carries the longest route, so it is the largest.
		if n := frameSize(f); n > MaxFrameSize {
			return fmt.Errorf("%w: broadcast %q item for node %d needs %d bytes, limit %d",
				ErrTooLarge, tag, it.Dst, n, MaxFrameSize)
		}
		frames[i] = f
		depth = max(depth, len(f.Route))
	}
	m.mx.reparents.Add(int64(plan.reparents))
	if plan.direct {
		m.mx.directs.Inc()
	}
	m.mx.treeDepth.Set(int64(depth))

	var wg sync.WaitGroup
	var closed atomic.Bool
	wg.Add(len(frames))
	for _, f := range frames {
		go func() {
			defer wg.Done()
			if !m.sendReliable(f.Route[0], f) {
				closed.Store(true)
			}
		}()
	}
	wg.Wait()
	if closed.Load() {
		return ErrClosed
	}
	return nil
}

// sendReliable transmits f over the (self, dst) link and blocks until the
// hop is acked, retransmitting on the capped-backoff ladder. Returns false
// if the mesh closed before the ack arrived.
func (m *Mesh) sendReliable(dst int, f *Frame) bool {
	lk := meshLink{src: m.self, dst: dst}
	f.Src, f.Dst = m.self, dst
	m.mu.Lock()
	f.Seq = m.nextSeq[lk]
	m.nextSeq[lk] = f.Seq + 1
	ack := make(chan struct{})
	aw := m.ackWait[lk]
	if aw == nil {
		aw = map[uint64]ackWaiter{}
		m.ackWait[lk] = aw
	}
	aw[f.Seq] = ackWaiter{gen: f.Gen, ch: ack}
	m.mu.Unlock()

	m.mx.sends.Inc()
	var start int64
	if m.prof != nil {
		start = m.prof.Now()
	}
	htc := f.hopTC()
	nbytes := len(f.Body)
	for attempt := 1; ; attempt++ {
		_ = m.fab.Send(dst, f)
		timer := time.NewTimer(m.rp.WaitFor(attempt))
		select {
		case <-ack:
			timer.Stop()
			m.mx.acks.Inc()
			if m.prof != nil {
				m.prof.SpanTC(htc, lk.src, obs.StageSend, "wire",
					fmt.Sprintf("%s#b=%d", f.Tag, nbytes), domain.Point{}, start, m.prof.Now())
			}
			return true
		case <-m.closed:
			timer.Stop()
			return false
		case <-timer.C:
			m.mx.retransmits.Inc()
			if m.prof != nil {
				m.prof.MarkTC(htc.Child(uint64(1+attempt)), lk.src, obs.StageRetransmit, "wire", f.Tag, domain.Point{}, m.prof.Now())
			}
		}
	}
}

// handleFrame is the fabric's receive callback: the mesh's inbound
// dispatch. Runs on fabric goroutines; must not block on the mesh's own
// reliable sends except via goroutines.
func (m *Mesh) handleFrame(f *Frame) {
	switch f.Kind {
	case KindData:
		m.handleData(f)
	case KindAck:
		m.handleAck(f)
	case KindPing:
		// Echo. Unreliable by design: a lost pong fails that probe attempt,
		// which is the signal the failure detector feeds on.
		_ = m.fab.Send(f.Src, &Frame{Kind: KindPong, Src: m.self, Dst: f.Src, Seq: f.Seq, Gen: f.Gen})
	case KindPong:
		m.mu.Lock()
		ch := m.pingWait[f.Seq]
		delete(m.pingWait, f.Seq)
		m.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	case KindExec:
		m.handleExec(f)
	case KindResult:
		m.handleResult(f)
	}
}

// dedupState classifies an inbound reliable frame against the link's
// delivery history.
type dedupState int

const (
	frameFresh      dedupState = iota // first sighting: process it
	frameDupDone                      // processed before: just re-ack
	frameDupPending                   // original still being processed: stay silent
)

// dedup records (link, gen, seq) and classifies the frame. A frame from a
// newer generation resets the link's seen-set (the sender recycled); an
// older generation's frame is a completed duplicate. A fresh frame is also
// marked in flight until the caller's dedupDone — re-acking a duplicate
// before the original finished would let the upstream sender report
// delivery that hasn't happened yet (the end-to-end guarantee Broadcast
// makes rides on relay acks being deferred until the downstream hop acked).
func (m *Mesh) dedup(f *Frame) dedupState {
	lk := meshLink{src: f.Src, dst: m.self}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.Gen < m.seenGen[lk] {
		return frameDupDone
	}
	if f.Gen > m.seenGen[lk] {
		m.seenGen[lk] = f.Gen
		m.seen[lk] = map[uint64]struct{}{}
		delete(m.inflight, lk)
	}
	sn := m.seen[lk]
	if sn == nil {
		sn = map[uint64]struct{}{}
		m.seen[lk] = sn
	}
	if _, dup := sn[f.Seq]; dup {
		if fl := m.inflight[lk]; fl != nil {
			if _, pending := fl[f.Seq]; pending {
				return frameDupPending
			}
		}
		return frameDupDone
	}
	sn[f.Seq] = struct{}{}
	fl := m.inflight[lk]
	if fl == nil {
		fl = map[uint64]struct{}{}
		m.inflight[lk] = fl
	}
	fl[f.Seq] = struct{}{}
	return frameFresh
}

// dedupDone clears the frame's in-flight mark: later duplicates re-ack.
func (m *Mesh) dedupDone(f *Frame) {
	lk := meshLink{src: f.Src, dst: m.self}
	m.mu.Lock()
	if fl := m.inflight[lk]; fl != nil {
		delete(fl, f.Seq)
	}
	m.mu.Unlock()
}

// ack acknowledges f's hop on the reverse link.
func (m *Mesh) ack(f *Frame) {
	_ = m.fab.Send(f.Src, &Frame{Kind: KindAck, Src: m.self, Dst: f.Src, Seq: f.Seq, Gen: f.Gen})
}

// handleData delivers or relays one broadcast payload. The inbound hop is
// acked only once the payload has actually landed: immediately for a leaf,
// after the onward hop's ack for a relay. That chains acks leaf-to-root, so
// Broadcast's return means every destination delivered, over sockets
// exactly as in-process.
func (m *Mesh) handleData(f *Frame) {
	switch m.dedup(f) {
	case frameDupPending:
		m.mx.dedups.Inc()
		return // the original's completion will trigger the ack
	case frameDupDone:
		m.mx.dedups.Inc()
		m.ack(f)
		return
	}
	if m.prof != nil {
		m.prof.MarkTC(f.hopTC().Child(1), m.self, obs.StageRecv, "wire",
			fmt.Sprintf("%s#b=%d", f.Tag, len(f.Body)), domain.Point{}, m.prof.Now())
	}
	if len(f.Route) <= 1 {
		if m.deliver != nil {
			m.deliver(m.self, f.Tag, f.Body)
		}
		m.ack(f)
		m.dedupDone(f)
		return
	}
	// Relay on a fresh goroutine (the onward hop blocks on its own ack and
	// must not stall the fabric's read loop); our own sequence on the next
	// link.
	next := &Frame{Kind: KindData, Gen: f.Gen, Key: f.Key, TC: f.TC,
		Route: f.Route[1:], Tag: f.Tag, Body: f.Body}
	go func() {
		if m.sendReliable(next.Route[0], next) {
			m.ack(f)
			m.dedupDone(f)
		}
	}()
}

// handleAck completes the sender's wait for (reverse link, seq) when the
// ack echoes the waiting send's generation; a stale-generation ack is
// dropped.
func (m *Mesh) handleAck(f *Frame) {
	lk := meshLink{src: m.self, dst: f.Src}
	m.mu.Lock()
	var ack chan struct{}
	if w, ok := m.ackWait[lk][f.Seq]; ok && w.gen == f.Gen {
		ack = w.ch
		delete(m.ackWait[lk], f.Seq)
	}
	m.mu.Unlock()
	if ack != nil {
		close(ack)
	}
}

// Probe sends one heartbeat ping to dst and reports whether a pong arrived
// within maxAttempts transmissions, each waiting its RetransmitPolicy
// timeout; a success's round trip lands in wire_ping_rtt_ns. Probes go
// direct rather than through the tree — the question is "does the peer
// answer", not "does the route relay" — and a node marked dead stays
// probeable, which is how a comeback is detected. Probes to one peer must
// not overlap (the failure detector probes sequentially).
func (m *Mesh) Probe(dst int, maxAttempts int) bool {
	if dst == m.self || dst < 0 || dst >= m.nodes {
		return false
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	m.mu.Lock()
	seq := m.pingSeq
	m.pingSeq++
	ch := make(chan struct{})
	m.pingWait[seq] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pingWait, seq)
		m.mu.Unlock()
	}()

	start := time.Now()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		_ = m.fab.Send(dst, &Frame{Kind: KindPing, Src: m.self, Dst: dst, Seq: seq})
		timer := time.NewTimer(m.rp.WaitFor(attempt))
		select {
		case <-ch:
			timer.Stop()
			m.mx.pingRTT.Observe(time.Since(start).Nanoseconds())
			return true
		case <-m.closed:
			timer.Stop()
			return false
		case <-timer.C:
		}
	}
	return false
}

// Exec runs a registered task body on peer dst and returns its result. The
// request travels on the reliable link (acked, deduped, retransmitted);
// the bound on the whole round trip is ExecTimeout, after which Exec
// returns ErrUnreachable and the caller may fall back to local execution.
func (m *Mesh) Exec(dst int, task string, point domain.Point, args []byte) ([]byte, error) {
	if dst == m.self || dst < 0 || dst >= m.nodes {
		return nil, fmt.Errorf("%w: exec dst %d out of range", ErrUnreachable, dst)
	}
	m.mx.execs.Inc()
	m.mu.Lock()
	req := m.execSeq
	m.execSeq++
	ch := make(chan execResult, 1)
	m.execWait[req] = ch
	gen := m.gen
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.execWait, req)
		m.mu.Unlock()
	}()

	f := &Frame{Kind: KindExec, Gen: gen, Key: req, Route: []int{dst},
		Tag: task, Body: encodeExecReq(req, task, point, args)}
	done := make(chan bool, 1)
	go func() { done <- m.sendReliable(dst, f) }()

	timer := time.NewTimer(m.execTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if !res.ok {
			m.mx.execErrs.Inc()
			return nil, fmt.Errorf("wire: remote %s on node %d: %s", task, dst, res.err)
		}
		return res.val, nil
	case <-timer.C:
		m.mx.execErrs.Inc()
		return nil, fmt.Errorf("%w: exec %s on node %d timed out after %v", ErrUnreachable, task, dst, m.execTimeout)
	case <-m.closed:
		m.mx.execErrs.Inc()
		return nil, fmt.Errorf("%w: mesh closed", ErrUnreachable)
	case ok := <-done:
		if !ok {
			m.mx.execErrs.Inc()
			return nil, fmt.Errorf("%w: mesh closed mid-send", ErrUnreachable)
		}
		// Send acked; keep waiting for the result.
		select {
		case res := <-ch:
			if !res.ok {
				m.mx.execErrs.Inc()
				return nil, fmt.Errorf("wire: remote %s on node %d: %s", task, dst, res.err)
			}
			return res.val, nil
		case <-timer.C:
			m.mx.execErrs.Inc()
			return nil, fmt.Errorf("%w: exec %s on node %d timed out after %v", ErrUnreachable, task, dst, m.execTimeout)
		case <-m.closed:
			m.mx.execErrs.Inc()
			return nil, fmt.Errorf("%w: mesh closed", ErrUnreachable)
		}
	}
}

// handleExec serves one inbound execution request: run the registered body
// on a fresh goroutine (bodies may take arbitrarily long; the fabric's
// read loop must not stall) and send the Result back on the reliable link.
// The hop was acked by the Data-layer dedup path, so a retransmitted
// request never runs the body twice.
func (m *Mesh) handleExec(f *Frame) {
	// Exec's hop ack carries no end-to-end meaning (completion is the
	// Result frame), so ack immediately and clear the in-flight mark.
	state := m.dedup(f)
	m.ack(f)
	if state != frameFresh {
		m.mx.dedups.Inc()
		return
	}
	m.dedupDone(f)
	req, task, point, args, err := decodeExecReq(f.Body)
	src := f.Src
	go func() {
		var res execResult
		if err != nil {
			res = execResult{err: "malformed exec request: " + err.Error()}
		} else if m.execFn == nil {
			res = execResult{err: "node serves no tasks"}
		} else if val, execErr := m.execFn(task, point, args); execErr != nil {
			res = execResult{err: execErr.Error()}
		} else {
			res = execResult{val: val, ok: true}
		}
		rf := &Frame{Kind: KindResult, Gen: f.Gen, Key: req, Route: []int{src},
			Tag: task, Body: encodeExecRes(req, res)}
		m.sendReliable(src, rf)
	}()
}

// handleResult completes a pending Exec.
func (m *Mesh) handleResult(f *Frame) {
	state := m.dedup(f)
	m.ack(f)
	if state != frameFresh {
		m.mx.dedups.Inc()
		return
	}
	m.dedupDone(f)
	req, res, err := decodeExecRes(f.Body)
	if err != nil {
		return
	}
	m.mu.Lock()
	ch := m.execWait[req]
	delete(m.execWait, req)
	m.mu.Unlock()
	if ch != nil {
		ch <- res
	}
}

// encodeExecReq serializes one execution request body.
func encodeExecReq(req uint64, task string, point domain.Point, args []byte) []byte {
	buf := binary.AppendUvarint(nil, req)
	buf = binary.AppendUvarint(buf, uint64(len(task)))
	buf = append(buf, task...)
	buf = append(buf, byte(point.Dim))
	for i := 0; i < point.Dim; i++ {
		buf = binary.AppendVarint(buf, point.C[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	return append(buf, args...)
}

// decodeExecReq parses one execution request body.
func decodeExecReq(b []byte) (req uint64, task string, point domain.Point, args []byte, err error) {
	d := decoder{b: b}
	req = d.uvarint()
	task = string(d.bytes())
	dim := int(d.u8())
	if d.err == nil && (dim < 0 || dim > len(point.C)) {
		return 0, "", point, nil, fmt.Errorf("%w: point dim %d", ErrCorrupt, dim)
	}
	if d.err == nil {
		point.Dim = dim
		for i := 0; i < dim; i++ {
			point.C[i] = d.varint()
		}
	}
	args = d.bytes()
	if d.err != nil {
		return 0, "", domain.Point{}, nil, d.err
	}
	return req, task, point, args, nil
}

// encodeExecRes serializes one execution result body.
func encodeExecRes(req uint64, res execResult) []byte {
	buf := binary.AppendUvarint(nil, req)
	if res.ok {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(res.val)))
		return append(buf, res.val...)
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(res.err)))
	return append(buf, res.err...)
}

// decodeExecRes parses one execution result body.
func decodeExecRes(b []byte) (uint64, execResult, error) {
	d := decoder{b: b}
	req := d.uvarint()
	ok := d.u8() == 1
	payload := d.bytes()
	if d.err != nil {
		return 0, execResult{}, d.err
	}
	if ok {
		return req, execResult{val: payload, ok: true}, nil
	}
	return req, execResult{err: string(payload)}, nil
}
