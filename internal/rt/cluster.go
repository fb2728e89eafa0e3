package rt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/wire"
)

// Cluster mode: the same runtime pipeline, with the transport's far side in
// other OS processes. Config.Cluster hands the runtime a wire.Mesh whose
// node 0 is this process (the launching side — idxserve) and whose other
// nodes are idxnode worker daemons, in place of the in-process loopback
// meshes. Three things change, none of them semantics:
//
//   - shipSlices broadcasts slice descriptors to the owning workers over
//     the mesh (same broadcast tree, same delivery guarantee) but keeps
//     every slice resident locally too: execution is driven point-by-point
//     from node 0, so the descriptors are the workers' view of what they
//     own, not the execution trigger.
//   - runAttempt executes a region-free point task's body on its owning
//     node via Mesh.Exec — the body actually runs in the worker process.
//     Tasks touching physical regions keep executing locally (region state
//     lives in this process); a transport-unreachable worker falls back to
//     local execution, trading locality for progress, and the health
//     detector handles the node's liveness separately.
//   - heartbeat probes, MarkDead/MarkAlive and resync broadcasts flow over
//     the mesh's sockets instead of the loopback hub.
//
// Everything else — dependence analysis, retries, speculation, tracing,
// the payload codec below — is unchanged, which is the point: the paper's
// index-launch pipeline is transport-agnostic, and the deterministic
// in-process transport remains the default when Config.Cluster is nil.

// Cluster payload type discriminators (first byte of a broadcast body).
const (
	clusterPayloadSlice  = 1
	clusterPayloadResync = 2
)

// ClusterMsg is the decoded form of one broadcast payload — what an idxnode
// worker, or an in-process remote node's mesh, receives through its Deliver
// callback.
type ClusterMsg struct {
	// Kind is "slice" or "resync".
	Kind string
	// Index is the slice's position in the launch's slice order (Kind
	// "slice").
	Index int
	// Slice is the shipped slice (Kind "slice").
	Slice Slice
	// Epoch is the announced resync epoch (Kind "resync").
	Epoch int64
}

// sliceMsg is the payload of one slice shipment: the slice plus its index
// in the slicing functor's output, so deliveries — which complete in
// arbitrary order under chaos — reassemble into the original deterministic
// slice order.
type sliceMsg struct {
	idx int
	s   Slice
}

// encodeClusterPayload serializes one broadcast payload for the mesh.
func encodeClusterPayload(payload any) []byte {
	switch m := payload.(type) {
	case sliceMsg:
		buf := []byte{clusterPayloadSlice}
		buf = binary.AppendUvarint(buf, uint64(m.idx))
		buf = binary.AppendUvarint(buf, uint64(m.s.Node))
		return appendDomain(buf, m.s.Domain)
	case resyncMsg:
		buf := []byte{clusterPayloadResync}
		return binary.AppendVarint(buf, m.epoch)
	default:
		panic(fmt.Sprintf("rt: unshippable broadcast payload %T", payload))
	}
}

// DecodeClusterPayload parses a mesh broadcast body back into its message.
// idxnode workers call this from their Deliver callback.
func DecodeClusterPayload(b []byte) (ClusterMsg, error) {
	if len(b) == 0 {
		return ClusterMsg{}, fmt.Errorf("rt: empty cluster payload")
	}
	switch b[0] {
	case clusterPayloadSlice:
		d := payloadDecoder{b: b[1:]}
		idx := int(d.uvarint())
		node := int(d.uvarint())
		dom := d.domain()
		if d.err != nil {
			return ClusterMsg{}, d.err
		}
		return ClusterMsg{Kind: "slice", Index: idx, Slice: Slice{Domain: dom, Node: node}}, nil
	case clusterPayloadResync:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return ClusterMsg{}, fmt.Errorf("rt: truncated resync payload")
		}
		return ClusterMsg{Kind: "resync", Epoch: v}, nil
	default:
		return ClusterMsg{}, fmt.Errorf("rt: unknown cluster payload type %d", b[0])
	}
}

// appendDomain serializes a domain losslessly: dense domains as their rect,
// sparse domains as their explicit point list.
func appendDomain(buf []byte, d domain.Domain) []byte {
	dim := d.Dim()
	if d.Sparse() {
		pts := d.Points()
		buf = append(buf, 1, byte(dim))
		buf = binary.AppendUvarint(buf, uint64(len(pts)))
		for _, p := range pts {
			for i := 0; i < dim; i++ {
				buf = binary.AppendVarint(buf, p.C[i])
			}
		}
		return buf
	}
	r := d.Bounds()
	buf = append(buf, 0, byte(dim))
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Lo.C[i])
	}
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Hi.C[i])
	}
	return buf
}

// payloadDecoder is a minimal latching cursor for cluster payload bodies
// (internal/wire's decoder is not importable here without exporting it;
// the format is three fields deep, so a local cursor costs little).
type payloadDecoder struct {
	b   []byte
	off int
	err error
}

func (d *payloadDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("rt: truncated cluster payload")
	}
}

func (d *payloadDecoder) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) domain() domain.Domain {
	sparse := d.u8() == 1
	dim := int(d.u8())
	if d.err != nil || dim < 1 || dim > domain.MaxDim {
		d.fail()
		return domain.Domain{}
	}
	if sparse {
		n := d.uvarint()
		if d.err != nil || n > uint64(len(d.b)-d.off) { // >=1 byte per coord
			d.fail()
			return domain.Domain{}
		}
		pts := make([]domain.Point, 0, n)
		for i := uint64(0); i < n; i++ {
			var p domain.Point
			p.Dim = dim
			for c := 0; c < dim; c++ {
				p.C[c] = d.varint()
			}
			pts = append(pts, p)
		}
		if d.err != nil {
			return domain.Domain{}
		}
		return domain.FromPoints(pts)
	}
	var lo, hi domain.Point
	lo.Dim, hi.Dim = dim, dim
	for c := 0; c < dim; c++ {
		lo.C[c] = d.varint()
	}
	for c := 0; c < dim; c++ {
		hi.C[c] = d.varint()
	}
	if d.err != nil {
		return domain.Domain{}
	}
	return domain.FromRect(domain.Rect{Lo: lo, Hi: hi})
}

// execBody runs one attempt of tr's body: locally by default, or — in
// cluster mode, for region-free tasks owned by a worker node — remotely in
// the owning idxnode process via Mesh.Exec. Remote task errors come back as
// errors and feed the normal retry ladder; a transport-level failure
// (ErrUnreachable) falls back to local execution so an unreachable worker
// degrades placement, not progress.
func (r *Runtime) execBody(tr *taskRun, ctx *Context, node int) ([]byte, error) {
	if r.cluster == nil || node == r.cluster.Self() || len(tr.prs) > 0 {
		return r.runBody(tr.fn, ctx)
	}
	val, err := r.cluster.Exec(node, tr.name, tr.point, tr.args)
	if err != nil && errors.Is(err, wire.ErrUnreachable) {
		return r.runBody(tr.fn, ctx)
	}
	return val, err
}
