// Package wire is the index-launch runtime's message transport: a
// length-prefixed binary codec plus a peer mesh that moves the centralized
// pipeline's broadcast-tree traffic between nodes — over an in-memory hub
// within one process, or over real connections between processes.
//
// The package splits into three layers:
//
//   - codec.go: the frame format — varint length prefix, versioned header
//     (kind, hop endpoints, sequence, delivery generation, span context,
//     remaining relay route), opaque body, CRC32C trailer (the same
//     Castagnoli polynomial internal/wal frames with). Decoding never
//     panics on torn or corrupt input; the fuzz harness enforces that.
//
//   - fabric: how encoded frames reach a peer. The Loopback fabric is a
//     deterministic in-memory hub — frames are encoded, decoded and handed
//     to the destination synchronously in the sender's goroutine, so a
//     loopback mesh is reproducible and every frame still round-trips the
//     codec. The TCP fabric is the real thing:
//     one listener per process, per-peer dialers with capped-backoff
//     reconnect, a handshake exchanging node ID + serving epoch + the peer
//     address table, and write-coalescing send loops (frames queued while a
//     write was in flight flush in one syscall).
//
//   - mesh.go: Mesh, the reliable-delivery engine. Broadcasts route
//     through the binary tree (tree.go — re-parenting around dead relays,
//     direct sends once the tree is too degraded), every hop is covered by
//     ack/timeout retransmission on the RetransmitPolicy ladder, receivers
//     dedup by per-link sequence, acks are fenced by delivery generation,
//     and heartbeat probes are Ping/Pong round trips whose RTT lands in a
//     wire_ping_rtt_ns histogram. Exec/Result frames let node 0 run a
//     registered task body on a remote peer — the primitive cmd/idxnode
//     serves.
//
// Chaos never enters the mesh: a ChaosPlan's pure per-frame decisions —
// drop, delay, duplicate, reorder, partition windows — are applied by a
// fabric-level carrier. The Chaos decorator (chaos.go) wraps the ports of
// a loopback hub; the socket-level Proxy (proxy.go) decodes frames off a
// real TCP stream. Either way the retransmission and re-parenting
// machinery is exercised by genuine loss.
package wire

import (
	"indexlaunch/internal/obs"
)

// Version is the frame-format version stamped into every header; decoders
// reject frames from a different major format.
const Version = 1

// Kind discriminates the frame types the mesh exchanges.
type Kind uint8

const (
	// KindHello opens a connection: the dialer introduces its node ID,
	// serving epoch and (from node 0) the full peer address table.
	KindHello Kind = 1 + iota
	// KindWelcome answers a Hello with the accepter's ID and epoch.
	KindWelcome
	// KindData carries one broadcast payload hop-by-hop along Route.
	KindData
	// KindAck acknowledges one Data/Exec/Result sequence on the reverse
	// link.
	KindAck
	// KindPing is a heartbeat probe; KindPong echoes its sequence.
	KindPing
	KindPong
	// KindExec asks the destination to run a registered task body;
	// KindResult returns the body's value or error.
	KindExec
	KindResult
)

// String names a kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	case KindExec:
		return "exec"
	case KindResult:
		return "result"
	}
	return "invalid"
}

// valid reports whether k is a defined frame kind.
func (k Kind) valid() bool { return k >= KindHello && k <= KindResult }

// Frame is one decoded wire message. Src and Dst are the endpoints of the
// hop the frame is traversing (not the broadcast origin/final destination —
// those are implied by Route), Seq sequences the (Src, Dst) link, and Gen
// is the sender's delivery generation: Mesh.Recycle bumps it so a receiver
// can discard its per-link dedup state between scheduler jobs without a
// second round trip.
type Frame struct {
	Kind  Kind
	Flags uint16
	Src   int
	Dst   int
	Seq   uint64
	Gen   uint64
	// Key disambiguates the items of one broadcast so every hop of every
	// item derives a distinct span.
	Key uint64
	// TC is the broadcast's span context; zero when untraced.
	TC obs.TraceRef
	// Route is the remaining relay chain for Data frames; the last entry
	// is the final destination.
	Route []int
	// Tag labels the launch the payload belongs to.
	Tag string
	// Body is the opaque payload (slice bytes, exec request, ...).
	Body []byte
}

// hopTC derives the span context for this frame's current hop — a pure
// function of (header, link), so sender and receiver agree on the hop span
// without coordination, and loopback and TCP runs of one traced job stamp
// identical transport spans.
func (f *Frame) hopTC() obs.TraceRef {
	return f.TC.Child(f.Key<<16 | uint64(f.Dst) + 1)
}

// Item is one broadcast payload addressed to a destination node.
type Item struct {
	Dst     int
	Payload []byte
}
