package rt

import (
	"fmt"

	"indexlaunch/internal/obs"
	"indexlaunch/internal/wire"
)

// This file wires the message transport (internal/wire's Mesh) into the
// centralized (non-DCR) distribution path. The paper's §5 pipeline ships
// slices from node 0 through an O(log N) broadcast tree; with a transport
// attached, the runtime makes those messages explicit: every slice bound
// for a remote node travels hop-by-hop through the tree, subject to the
// configured ChaosPlan, and the launch proceeds only once every slice has
// been delivered exactly once. Slices for node 0 itself, and slices whose
// destination is already dead at broadcast time, never enter the transport:
// they stay local and the per-point faultCheck re-maps them exactly as it
// did before the transport existed, which is what keeps chaos runs
// byte-identical to fault-free runs.
//
// In process, every node is a mesh on one loopback Hub. Node 0's mesh is
// the runtime's transport; each other node's mesh decodes the slices it is
// sent and writes them into the in-flight launch's reassembly, the same
// codec an idxnode worker decodes in cluster mode.

// startLoopback builds the in-process transport: one loopback hub with a
// mesh per node, every port wrapped by the ChaosPlan's decorator when one
// is configured. The meshes share the runtime's registry, so relay sends
// and receiver-side dedups count toward Stats like node 0's own sends.
func (r *Runtime) startLoopback() error {
	var chaos *wire.Chaos
	if r.cfg.Chaos != nil {
		var err error
		if chaos, err = wire.NewChaos(r.cfg.Chaos, r.reg); err != nil {
			return err
		}
	}
	hub := wire.NewHub()
	for n := 0; n < r.cfg.Nodes; n++ {
		fab := hub.Fabric(n)
		if chaos != nil {
			fab = chaos.Wrap(fab)
		}
		mc := wire.MeshConfig{
			Self: n, Nodes: r.cfg.Nodes, Fabric: fab,
			Retransmit: r.cfg.Retransmit, Prof: r.cfg.Profile, Metrics: r.reg,
		}
		if n > 0 {
			mc.Deliver = r.deliverSlice
		}
		m, err := wire.NewMesh(mc)
		if err != nil {
			r.closeMeshes()
			return err
		}
		r.meshes = append(r.meshes, m)
	}
	r.xp = r.meshes[0]
	return nil
}

// closeMeshes tears the in-process transport down; the chaos decorator's
// Close waits out its delayed deliveries.
func (r *Runtime) closeMeshes() {
	for _, m := range r.meshes {
		_ = m.Close() // loopback ports never fail to close
	}
}

// reassembly is the in-flight broadcast's delivery target: the launch's
// slices in slicing-functor order, with the slots already filled.
type reassembly struct {
	out    []Slice
	filled []bool
}

// deliverSlice is the Deliver callback of every in-process remote node's
// mesh: it decodes the shipment and fills its slot of the in-flight
// launch's reassembly. Anything else — a delivery with no broadcast in
// flight, into a slot already filled or out of range — is a stray, which
// the transport's exactly-once contract rules out; strays are counted in
// rt_stray_deliveries_total, so a violation shows on /metrics. Resync
// announcements need no action in process.
func (r *Runtime) deliverSlice(node int, tag string, payload []byte) {
	msg, err := DecodeClusterPayload(payload)
	if err == nil && msg.Kind == "resync" {
		return
	}
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	ra := r.pending
	if err != nil || ra == nil || msg.Index < 0 || msg.Index >= len(ra.out) || ra.filled[msg.Index] {
		r.mx.StrayDeliveries.Inc()
		return
	}
	ra.out[msg.Index] = msg.Slice
	ra.filled[msg.Index] = true
}

// shipSlices broadcasts the launch's slices through the transport and
// returns them reassembled in original slice order. Caller holds issueMu
// (which serializes broadcasts and makes the r.dead read safe). Without a
// transport it is the identity. tc — the launch's distribute span context
// — rides the frame headers so each hop records a child send span. A
// failed broadcast (an oversize slice, a transport closed by Shutdown)
// fails the launch.
func (r *Runtime) shipSlices(tag string, slices []Slice, tc obs.TraceRef) ([]Slice, error) {
	if r.xp == nil || len(slices) == 0 {
		return slices, nil
	}
	ra := &reassembly{out: make([]Slice, len(slices)), filled: make([]bool, len(slices))}
	items := make([]wire.Item, 0, len(slices))
	for i, s := range slices {
		node := clampNode(s.Node, r.cfg.Nodes)
		if node == 0 || r.dead[node] || r.cluster != nil {
			// Node-0-local slices have nowhere to go; dead-destination
			// slices stay local so faultCheck re-maps their points. In
			// cluster mode every slice also stays resident here: issuance
			// and analysis run on node 0 and drive execution point by point
			// through Mesh.Exec, so the workers' copy is their view of what
			// they own, delivered in their own processes.
			ra.out[i], ra.filled[i] = s, true
		}
		if node != 0 && !r.dead[node] {
			items = append(items, wire.Item{Dst: node, Payload: encodeClusterPayload(sliceMsg{idx: i, s: s})})
		}
	}
	if len(items) == 0 {
		return ra.out, nil
	}
	r.deliverMu.Lock()
	r.pending = ra
	r.deliverMu.Unlock()
	err := r.xp.BroadcastTraced(tc, tag, items)
	r.deliverMu.Lock()
	r.pending = nil
	r.deliverMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("rt: launch %q: shipping slices: %w", tag, err)
	}
	return ra.out, nil
}
