package wire

import (
	"strconv"
	"sync"

	"indexlaunch/internal/metrics"
)

// Mesh metrics. The delivery aggregates use the shared xport_* names from
// internal/metrics, so a mesh given the runtime's registry shares the
// runtime's counters — rt.Stats reads them straight from the registry, in
// process and in cluster mode alike. The wire_* families cover what only
// the mesh knows: acks, remote executions, codec rejects, and per-peer
// bytes/msgs/reconnect counters (label peer="<node id>") resolved once and
// cached, keeping the frame path free of label formatting. The histograms
// time the codec and the ping round trip.

type wireMetrics struct {
	sends, retransmits, drops, dedups *metrics.Counter
	reparents, directs, acks          *metrics.Counter
	execs, execErrs                   *metrics.Counter
	badFrames                         *metrics.Counter
	treeDepth                         *metrics.Gauge

	encodeNS, decodeNS, pingRTT *metrics.Histogram

	peerBytesSent, peerBytesRecv *metrics.CounterVec
	peerMsgsSent, peerMsgsRecv   *metrics.CounterVec
	peerReconnects               *metrics.CounterVec

	mu    sync.Mutex
	peers map[int]*peerCounters
}

// peerCounters are one peer's resolved instruments.
type peerCounters struct {
	bytesSent, bytesRecv, msgsSent, msgsRecv, reconnects *metrics.Counter
}

func newWireMetrics(reg *metrics.Registry) *wireMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &wireMetrics{
		sends:       reg.Counter(metrics.NameXportSends, "hop-level message first transmissions"),
		retransmits: reg.Counter(metrics.NameXportRetransmits, "ack-timeout-driven hop re-sends"),
		drops:       reg.Counter(metrics.NameXportDrops, "transmissions (data and acks) lost to chaos"),
		dedups:      reg.Counter(metrics.NameXportDedups, "received duplicates suppressed by sequence numbers"),
		reparents:   reg.Counter(metrics.NameXportReparents, "broadcast-tree orphan adoptions"),
		directs:     reg.Counter(metrics.NameXportDirectBroadcasts, "broadcasts that abandoned a degraded tree for direct sends"),
		treeDepth:   reg.Gauge(metrics.NameXportTreeDepth, "fan-out depth (max hops) of the last planned broadcast"),
		acks:        reg.Counter("wire_acks_total", "effective acks received"),
		execs:       reg.Counter("wire_execs_total", "remote task executions requested"),
		execErrs:    reg.Counter("wire_exec_errors_total", "remote executions that failed (transport or task error)"),
		badFrames:   reg.Counter("wire_bad_frames_total", "inbound frames rejected by the codec (corrupt, torn, wrong version)"),

		encodeNS: reg.Histogram("wire_encode_ns", "frame encode latency"),
		decodeNS: reg.Histogram("wire_decode_ns", "frame decode latency"),
		pingRTT:  reg.Histogram("wire_ping_rtt_ns", "heartbeat ping round-trip time over the fabric"),

		peerBytesSent:  reg.CounterVec("wire_peer_bytes_sent_total", "frame bytes sent per peer", "peer"),
		peerBytesRecv:  reg.CounterVec("wire_peer_bytes_recv_total", "frame bytes received per peer", "peer"),
		peerMsgsSent:   reg.CounterVec("wire_peer_msgs_sent_total", "frames sent per peer", "peer"),
		peerMsgsRecv:   reg.CounterVec("wire_peer_msgs_recv_total", "frames received per peer", "peer"),
		peerReconnects: reg.CounterVec("wire_peer_reconnects_total", "connection (re)establishments per peer", "peer"),

		peers: map[int]*peerCounters{},
	}
}

// peer resolves (and caches) the per-peer counters for node id.
func (m *wireMetrics) peer(id int) *peerCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	pc := m.peers[id]
	if pc == nil {
		label := strconv.Itoa(id)
		pc = &peerCounters{
			bytesSent:  m.peerBytesSent.With(label),
			bytesRecv:  m.peerBytesRecv.With(label),
			msgsSent:   m.peerMsgsSent.With(label),
			msgsRecv:   m.peerMsgsRecv.With(label),
			reconnects: m.peerReconnects.With(label),
		}
		m.peers[id] = pc
	}
	return pc
}
