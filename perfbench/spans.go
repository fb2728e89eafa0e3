package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"indexlaunch/internal/obs"
)

// The benchmark's own tracing: spans recorded around the calls it makes
// into each layer, never inside the program. A span's name is
// "<layer>.<call>"; spans of one operation (a circuit step, a cluster
// launch, a served job) share op. Spans stay in memory and are written
// out once, when the run ends.

type span struct {
	ID, Parent uint64 // Parent 0 marks an operation's root
	Op         uint64
	Name       string
	Node       int32
	Start, End int64 // ns since the recorder's epoch
}

func (s span) layer() string { return layerOf(s.Name) }

// layerOf is the layer part of a span name: "rt" for "rt.issue".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// maxSpans bounds one run's span memory; spans past it are counted, not
// kept.
const maxSpans = 400_000

// spanRecorder is nil-safe: a nil recorder records nothing and costs one
// branch, which is how untraced runs use it.
type spanRecorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int64
}

func newSpanRecorder(epoch time.Time) *spanRecorder { return &spanRecorder{epoch: epoch} }

// ns converts a wall time to the recorder's clock.
func (r *spanRecorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// newID reserves a span ID, so a parent can be named before it ends.
func (r *spanRecorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span; id 0 reserves a fresh one. It returns the
// span's ID.
func (r *spanRecorder) add(id, parent, op uint64, name string, node int32, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Node: node,
		Start: r.ns(start), End: r.ns(end)})
	return id
}

func (r *spanRecorder) snapshot() ([]span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// selfTimes sums self time by span name: a span's duration minus the part
// of its interval that its children cover (overlapping children count
// once). Children may run past their parent (an asynchronous launch
// outliving the call that issued it); only the overlap is subtracted.
// Concurrent spans each count, so a name's total can exceed wall time.
func selfTimes(spans []span) map[string]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of kids.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// spanStage maps a span onto the profile taxonomy so idxprof can render
// it: the layer boundary each call crosses picks the closest stage.
var spanStage = map[string]obs.Stage{
	"rt.issue":      obs.StageIssue,
	"rt.fence":      obs.StageFence,
	"rt.wait":       obs.StageFence,
	"safety.verify": obs.StageLogical,
	"http.submit":   obs.StageEnqueue,
	"http.read":     obs.StageRecv,
	"trace.query":   obs.StageRecv,
	"sched.queue":   obs.StageAdmit,
	"sched.body":    obs.StageExecute,
	"sched.finish":  obs.StageJournal,
	"wire.exec":     obs.StageExecute,
}

// profile converts the spans into an obs.Profile — the format idxprof
// reads. Task carries the span name; Trace/Span/Parent carry the op and
// span identities (op IDs start at 1, so traced events are never zero).
func profile(source string, nodes int, spans []span, dropped, wallNS int64) *obs.Profile {
	p := &obs.Profile{Source: source, Nodes: nodes, WallNS: wallNS, Dropped: dropped}
	for _, s := range spans {
		st, ok := spanStage[s.Name]
		if !ok {
			st = obs.StageJob
		}
		p.Events = append(p.Events, obs.Event{
			Node: s.Node, Stage: st, Task: s.Name, Tag: s.layer(),
			Start: s.Start, Dur: s.End - s.Start,
			Trace: s.Op, Span: s.ID, Parent: s.Parent,
		})
		if int(s.Node) >= p.Nodes {
			p.Nodes = int(s.Node) + 1
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Start < p.Events[j].Start })
	return p
}
