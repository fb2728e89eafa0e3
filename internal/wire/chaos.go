package wire

import (
	"fmt"
	"sync"
	"time"

	"indexlaunch/internal/metrics"
)

// ChaosPlan injects deterministic message-level faults into mesh traffic.
// Every decision — drop this transmission, delay it, duplicate it, let a
// later frame overtake it — derives from a seeded hash of the link, the
// frame's sequence number and the transmission attempt, never from shared
// RNG state or goroutine interleaving. Two transmissions with the same
// (seed, link, seq, attempt) identity meet the same fate in every run, so a
// chaos schedule is a pure function of the plan, not of scheduling luck.
//
// Two carriers apply a plan: the Chaos fabric decorator wraps the ports of
// an in-process loopback Hub, and the socket-level Proxy applies it to real
// TCP traffic. The zero plan (or a nil *ChaosPlan) injects nothing.
type ChaosPlan struct {
	// Seed keys every per-transmission decision.
	Seed int64
	// Drop is the probability a transmission (data or ack) is lost on a
	// link. Must be < 1: the retransmission layer guarantees eventual
	// delivery only when every attempt has a positive chance of surviving.
	Drop float64
	// Dup is the probability a delivered transmission arrives twice; the
	// receiver deduplicates the copy.
	Dup float64
	// Reorder is the probability a transmission is held an extra DelayMax,
	// letting later frames on the link overtake it.
	Reorder float64
	// DelayMax bounds the uniform per-transmission link delay.
	DelayMax time.Duration
	// Partitions take links down for bounded transmission windows.
	Partitions []Partition
}

// Partition is a bounded outage of the link between nodes A and B (both
// directions): every transmission attempted while the link's transmission
// count is in [AfterSends, AfterSends+Sends) is lost. Retransmission
// attempts advance the count, so an outage always heals.
type Partition struct {
	A, B       int
	AfterSends int64
	Sends      int64
}

// Validate reports plans whose faults the mesh cannot survive.
func (c *ChaosPlan) Validate() error {
	if c == nil {
		return nil
	}
	for name, p := range map[string]float64{"Drop": c.Drop, "Dup": c.Dup, "Reorder": c.Reorder} {
		if p < 0 || p >= 1 {
			return fmt.Errorf("wire: ChaosPlan.%s = %v, want [0, 1): probability 1 would block delivery forever", name, p)
		}
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("wire: ChaosPlan.DelayMax = %v, want >= 0", c.DelayMax)
	}
	for i, p := range c.Partitions {
		if p.AfterSends < 0 || p.Sends < 0 {
			return fmt.Errorf("wire: ChaosPlan.Partitions[%d] has negative window %+v", i, p)
		}
	}
	return nil
}

// Decision salts, one per fault axis, so one (link, seq, attempt) identity
// yields independent rolls for each decision.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltDelay
	saltReorder
	saltAck
	_ // unused, so the salts after it keep their values and a seed its schedule
	saltProbe
	saltProbeAck
)

// splitmix64 is the standard splitmix64 finalizer — a cheap, well-mixed
// hash good enough to turn identities into uniform rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform [0,1) float keyed on the transmission identity.
func (c *ChaosPlan) roll(salt uint64, lk meshLink, seq uint64, attempt int) float64 {
	h := splitmix64(uint64(c.Seed) ^ salt)
	h = splitmix64(h ^ uint64(lk.src)<<32 ^ uint64(uint32(lk.dst)))
	h = splitmix64(h ^ seq ^ uint64(attempt)<<48)
	return float64(h>>11) / (1 << 53)
}

// cut reports whether the link's n-th transmission falls inside a
// partition window.
func (c *ChaosPlan) cut(lk meshLink, n int64) bool {
	if c == nil {
		return false
	}
	for _, p := range c.Partitions {
		if (p.A == lk.src && p.B == lk.dst) || (p.A == lk.dst && p.B == lk.src) {
			if n >= p.AfterSends && n < p.AfterSends+p.Sends {
				return true
			}
		}
	}
	return false
}

// lost rolls one axis: whether a transmission with this identity is lost
// under the Drop probability, salted per traffic class (data, ack, probe,
// probe reply) so classes sharing an identity never correlate.
func (c *ChaosPlan) lost(salt uint64, lk meshLink, seq uint64, attempt int) bool {
	return c != nil && c.Drop > 0 && c.roll(salt, lk, seq, attempt) < c.Drop
}

func (c *ChaosPlan) dup(lk meshLink, seq uint64, attempt int) bool {
	return c != nil && c.Dup > 0 && c.roll(saltDup, lk, seq, attempt) < c.Dup
}

// delay returns the link delay for one transmission: a uniform draw up to
// DelayMax, plus a full extra DelayMax when the reorder roll fires, so
// later transmissions on the link can overtake this one.
func (c *ChaosPlan) delay(lk meshLink, seq uint64, attempt int) time.Duration {
	if c == nil || c.DelayMax <= 0 {
		return 0
	}
	d := time.Duration(c.roll(saltDelay, lk, seq, attempt) * float64(c.DelayMax))
	if c.Reorder > 0 && c.roll(saltReorder, lk, seq, attempt) < c.Reorder {
		d += c.DelayMax
	}
	return d
}

// Chaos applies one ChaosPlan to every port of a loopback Hub: Wrap each
// port before handing it to its mesh. Ports share the decision state, so
// an ack's fate is keyed on the attempt number of the data transmission it
// answers, exactly as the plan's identities promise.
//
// Reliable frames (data, exec, result) and their acks run on a per-link
// partition clock that restarts when a newer delivery generation first
// crosses the link — Mesh.Recycle thus restarts the plan's decision stream
// and every job leased onto a recycled runtime sees the same chaos prefix.
// They may be dropped, delayed, reordered and (acks excepted) duplicated.
//
// Heartbeat traffic keeps its own lifetime partition clock per link, so
// probe fates never depend on how data traffic interleaved. A ping and its
// pong are one round trip on that clock: a partition is symmetric, so the
// pong is cut exactly when its ping is, and only the ping advances the
// clock. Ping and pong may be cut or dropped but never delayed or
// duplicated, so a probe's outcome is settled synchronously on the Hub and
// stays a pure function of the plan and the probe order.
type Chaos struct {
	plan  *ChaosPlan
	drops *metrics.Counter

	mu    sync.Mutex
	links map[meshLink]*chaosLink
}

// chaosLink is one directed link's decision state.
type chaosLink struct {
	gen   uint64         // delivery generation the reliable clock belongs to
	sent  int64          // reliable and ack transmissions this generation
	tries map[uint64]int // reliable seq → transmissions this generation

	pings   int64  // lifetime ping transmissions: the probe partition clock
	pingSeq uint64 // the latest ping's seq and its transmissions so far
	pingTry int
}

// NewChaos validates plan and returns a decorator applying it. Drops are
// counted into reg's xport_drops_total (the family Mesh.Stats and rt.Stats
// read); a nil reg keeps the count in a private registry.
func NewChaos(plan *ChaosPlan, reg *metrics.Registry) (*Chaos, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Chaos{
		plan:  plan,
		drops: reg.Counter(metrics.NameXportDrops, "transmissions (data and acks) lost to chaos"),
		links: map[meshLink]*chaosLink{},
	}, nil
}

// Wrap returns inner with the plan applied to every frame it sends.
func (c *Chaos) Wrap(inner Fabric) Fabric {
	return &chaosPort{c: c, inner: inner, done: make(chan struct{})}
}

func (c *Chaos) link(lk meshLink) *chaosLink {
	l := c.links[lk]
	if l == nil {
		l = &chaosLink{tries: map[uint64]int{}}
		c.links[lk] = l
	}
	return l
}

// tick advances the link's reliable clock for a frame of generation gen
// and returns the pre-increment count.
func (l *chaosLink) tick(gen uint64) int64 {
	if gen > l.gen {
		l.gen, l.sent, l.tries = gen, 0, map[uint64]int{}
	}
	n := l.sent
	l.sent++
	return n
}

// fate decides one transmission of f on the (f.Src, dst) link: whether it
// is lost, how many copies arrive and after what delay.
func (c *Chaos) fate(dst int, f *Frame) (lost bool, copies int, delay time.Duration) {
	lk := meshLink{src: f.Src, dst: dst}
	rk := meshLink{src: dst, dst: f.Src}
	p := c.plan
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.link(lk)
	switch f.Kind {
	case KindPing:
		// Pings to one peer are sequential (Probe blocks), so the latest
		// seq identifies the probe and counting its sends gives the attempt.
		if f.Seq != l.pingSeq {
			l.pingSeq, l.pingTry = f.Seq, 0
		}
		l.pingTry++
		n := l.pings
		l.pings++
		return p.cut(lk, n) || p.lost(saltProbe, lk, f.Seq, l.pingTry), 1, 0
	case KindPong:
		attempt := 1
		if pl := c.links[rk]; pl != nil && pl.pingSeq == f.Seq {
			attempt = pl.pingTry
		}
		return p.lost(saltProbeAck, lk, f.Seq, attempt), 1, 0
	case KindAck:
		attempt := 1
		if dl := c.links[rk]; dl != nil && dl.gen == f.Gen && dl.tries[f.Seq] > 0 {
			attempt = dl.tries[f.Seq]
		}
		n := l.tick(f.Gen)
		return p.cut(lk, n) || p.lost(saltAck, lk, f.Seq, attempt), 1, p.delay(lk, f.Seq, attempt)
	default:
		n := l.tick(f.Gen)
		l.tries[f.Seq]++
		attempt := l.tries[f.Seq]
		copies = 1
		if p.dup(lk, f.Seq, attempt) {
			copies = 2
		}
		return p.cut(lk, n) || p.lost(saltDrop, lk, f.Seq, attempt), copies, p.delay(lk, f.Seq, attempt)
	}
}

// chaosPort is one wrapped hub port. Delayed and duplicate copies travel
// on goroutines the port tracks, so Close can cancel and wait for them.
type chaosPort struct {
	c     *Chaos
	inner Fabric

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// Send applies the plan to one transmission. A lost frame is counted and
// reported as sent — to the sender, loss is silence, as on a socket.
func (p *chaosPort) Send(dst int, f *Frame) error {
	lost, copies, delay := p.c.fate(dst, f)
	if lost {
		p.c.drops.Inc()
		return nil
	}
	for i := 0; i < copies; i++ {
		if delay > 0 || i > 0 {
			p.later(delay, dst, f)
			continue
		}
		if err := p.inner.Send(dst, f); err != nil {
			return err
		}
	}
	return nil
}

// later delivers f to dst after d on a tracked goroutine; a closed port
// drops it instead.
func (p *chaosPort) later(d time.Duration, dst int, f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			_ = p.inner.Send(dst, f) // a peer closed meanwhile is a lost frame
		case <-p.done:
		}
	}()
}

func (p *chaosPort) SetReceiver(fn func(*Frame)) { p.inner.SetReceiver(fn) }
func (p *chaosPort) Peers() []PeerStatus         { return p.inner.Peers() }

// attach forwards the mesh's metrics to the wrapped port (the loopback
// fabric keeps its per-peer counters there).
func (p *chaosPort) attach(mx *wireMetrics) {
	if a, ok := p.inner.(interface{ attach(*wireMetrics) }); ok {
		a.attach(mx)
	}
}

// Close cancels the port's pending delayed copies, waits for their
// goroutines and closes the wrapped port.
func (p *chaosPort) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.inner.Close()
}
