package rt

import (
	"fmt"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// Tracing (paper §6.2.1, citing Lee et al. [20]) memoizes the dependence
// analysis of a repeated sequence of launches. The first execution of a
// trace captures, per point task, the dependence edges the version map
// produced; subsequent executions replay the captured template, skipping
// version-map queries entirely.
//
// A replayed trace is stitched to the surrounding program with two
// conservative joints: every replayed op waits on the merged last-events of
// all data the trace touches (computed live at replay time), and at the end
// of a replay the version map is bulk-updated so later un-traced work orders
// correctly after the trace.
//
// Config.BulkTracing selects the replay policy, not a second template: it
// implements the paper's stated future work, tracing that works with bulk
// task launches. Capture is the same; on replay, a launch's edges to
// earlier launches are coarsened into one shared dependence set (the
// episode boundary plus the merged completions of the depended-on
// launches), so each launch costs one dependence decision instead of one
// per point. Edges between points of the same launch stay point-level.
// The price is precision: point tasks that were independent at point
// granularity across launches (e.g. halo exchanges) become launch barriers.
//
// Replays must issue exactly the ops that were captured (same tasks, same
// points, same launch boundaries); a divergent replay is a programming
// error and panics with a diagnostic.

type traceMode uint8

const (
	traceCapturing traceMode = iota
	traceReplaying
)

type opSig struct {
	task  core.TaskID
	point domain.Point
}

type traceTemplate struct {
	id       uint64
	sigs     []opSig
	deps     [][]int // intra-trace dependence indices per op
	opLaunch []int   // index of the launch that issued each op
	launches []int   // ops consumed per launch call, for replay validation
	writes   map[fieldKey][]region.Interval
	reads    map[fieldKey][]region.Interval
}

type traceState struct {
	mode traceMode
	bulk bool // replay policy: coarsen cross-launch edges per launch
	tmpl *traceTemplate

	// Capture state.
	evIdx map[*Event]int

	// Replay state.
	cursor       int
	launchCursor int
	launchStart  int // op index of the current launch's first op
	events       []*Event
	startEv      *Event
	done         []*Event // bulk: merged completion per replayed launch
	shared       []*Event // bulk: the current launch's cross-launch deps
}

func (r *Runtime) replaying() bool { return r.trace != nil && r.trace.mode == traceReplaying }
func (r *Runtime) capturing() bool { return r.trace != nil && r.trace.mode == traceCapturing }

// BeginTrace starts a trace episode. The first episode with a given id
// captures; later episodes replay. Traces do not nest. Tracing must be
// enabled in the runtime config.
func (r *Runtime) BeginTrace(id uint64) error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	if !r.cfg.Tracing {
		return fmt.Errorf("rt: tracing disabled in config")
	}
	if r.trace != nil {
		return fmt.Errorf("rt: trace %d begun inside another trace", id)
	}
	if tmpl, ok := r.traceStore[id]; ok {
		// Replay: order the whole trace after the current last users of
		// everything it touches.
		var boundary []*Event
		for key, ivs := range tmpl.writes {
			boundary = append(boundary, r.vm.lastEvents(key.tree, key.field, ivs)...)
		}
		for key, ivs := range tmpl.reads {
			boundary = append(boundary, r.vm.lastEvents(key.tree, key.field, ivs)...)
		}
		r.trace = &traceState{
			mode:    traceReplaying,
			bulk:    r.cfg.BulkTracing,
			tmpl:    tmpl,
			events:  make([]*Event, len(tmpl.sigs)),
			startEv: Merge(boundary...),
		}
		if r.trace.bulk {
			r.trace.done = make([]*Event, len(tmpl.launches))
		}
		return nil
	}
	r.trace = &traceState{
		mode: traceCapturing,
		tmpl: &traceTemplate{
			id:     id,
			writes: map[fieldKey][]region.Interval{},
			reads:  map[fieldKey][]region.Interval{},
		},
		evIdx: map[*Event]int{},
	}
	return nil
}

// EndTrace finishes the current trace episode. An id that does not match
// the begun episode is rejected and leaves the episode open.
func (r *Runtime) EndTrace(id uint64) error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	ts := r.trace
	if ts == nil {
		return fmt.Errorf("rt: EndTrace(%d) without BeginTrace", id)
	}
	if ts.tmpl.id != id {
		return fmt.Errorf("rt: EndTrace(%d) does not match trace %d", id, ts.tmpl.id)
	}
	r.trace = nil
	label := "trace"
	if r.cfg.BulkTracing {
		label = "bulk-trace"
	}
	switch ts.mode {
	case traceCapturing:
		r.traceStore[id] = ts.tmpl
		r.mx.TraceCaptures.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.Mark(0, obs.StageCapture, label, "trace", domain.Point{}, prof.Now())
		}
	case traceReplaying:
		if ts.cursor != len(ts.tmpl.sigs) {
			return fmt.Errorf("rt: trace %d replay issued %d of %d ops", id, ts.cursor, len(ts.tmpl.sigs))
		}
		// Restore version state in bulk: the merged terminal event of the
		// replay becomes the last writer of everything the trace wrote and
		// a reader of everything it read.
		terminal := Merge(ts.events...)
		for key, ivs := range ts.tmpl.writes {
			r.vm.bulkWrite(key.tree, key.field, ivs, terminal)
		}
		r.deps.reset(terminal)
		for key, ivs := range ts.tmpl.reads {
			r.vm.collect(key.tree, key.field, ivs, privilege.Read, privilege.OpNone, terminal, &r.deps)
		}
		r.outstanding = append(r.outstanding, pendingTask{ev: terminal, name: label + "-replay", tag: "trace"})
		r.mx.TraceReplays.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.Mark(0, obs.StageReplay, label, "trace", domain.Point{}, prof.Now())
		}
	}
	return nil
}

// recordOp captures one issued point task into the open template. Caller
// holds issueMu.
func (ts *traceState) recordOp(task core.TaskID, p domain.Point, ev *Event, deps []*Event, prs []PhysicalRegion) {
	idx := len(ts.tmpl.sigs)
	ts.evIdx[ev] = idx
	ts.tmpl.sigs = append(ts.tmpl.sigs, opSig{task: task, point: p})
	ts.tmpl.opLaunch = append(ts.tmpl.opLaunch, len(ts.tmpl.launches))
	// Edges to events from outside the trace are dropped: pre-episode
	// ordering is reconstructed at replay time from the version map
	// (startEv), never from the capture run, whose timing-dependent view
	// of pre-trace state (e.g. fresh, never-written regions) says nothing
	// about what a replay will find.
	var intra []int
	for _, d := range deps {
		if j, ok := ts.evIdx[d]; ok {
			intra = append(intra, j)
		}
	}
	ts.tmpl.deps = append(ts.tmpl.deps, intra)
	for _, pr := range prs {
		ivs := pr.Region.Intervals()
		for _, f := range pr.Fields {
			key := fieldKey{tree: pr.Region.Tree.ID, field: f}
			if pr.Priv.IsWrite() {
				ts.tmpl.writes[key] = append(ts.tmpl.writes[key], ivs...)
			} else {
				ts.tmpl.reads[key] = append(ts.tmpl.reads[key], ivs...)
			}
		}
	}
}

// replayDeps returns the precondition events for the next replayed op and
// registers ev as its completion event. Caller holds issueMu.
func (ts *traceState) replayDeps(task core.TaskID, p domain.Point, ev *Event) []*Event {
	if ts.cursor >= len(ts.tmpl.sigs) {
		panic(fmt.Sprintf("rt: trace %d replay issued more ops than captured (%d)", ts.tmpl.id, len(ts.tmpl.sigs)))
	}
	sig := ts.tmpl.sigs[ts.cursor]
	if sig.task != task || !sig.point.Eq(p) {
		panic(fmt.Sprintf("rt: trace %d replay diverged at op %d: captured task %d point %v, replayed task %d point %v",
			ts.tmpl.id, ts.cursor, sig.task, sig.point, task, p))
	}
	ts.events[ts.cursor] = ev
	// Every replayed op waits on the episode boundary in addition to its
	// intra-trace deps; ops with intra-trace deps reach startEv
	// transitively, so only the chain roots gain an edge. A capture-time
	// "had external deps" flag cannot stand in for this: an op that read
	// fresh data during capture is indistinguishable from a genuinely
	// independent one, yet at replay time the same read races with
	// whatever wrote the region since — typically the previous episode.
	deps := []*Event{ts.startEv}
	if ts.bulk {
		if ts.cursor == ts.launchStart {
			ts.shared = ts.launchDeps()
		}
		// Full slice expression: appending the intra-launch edges below
		// must copy, never write into the set the launch's points share.
		deps = ts.shared[:len(ts.shared):len(ts.shared)]
	}
	for _, j := range ts.tmpl.deps[ts.cursor] {
		if !ts.bulk || j >= ts.launchStart {
			deps = append(deps, ts.events[j])
		}
	}
	ts.cursor++
	return deps
}

// launchDeps coarsens the cross-launch edges of the launch starting at the
// cursor into one dependence set: the episode boundary plus the merged
// completion of every earlier launch any of its points depended on.
func (ts *traceState) launchDeps() []*Event {
	deps := []*Event{ts.startEv}
	seen := map[int]bool{}
	end := ts.launchStart + ts.tmpl.launches[ts.launchCursor]
	for _, intra := range ts.tmpl.deps[ts.launchStart:end] {
		for _, j := range intra {
			if l := ts.tmpl.opLaunch[j]; j < ts.launchStart && !seen[l] {
				seen[l] = true
				deps = append(deps, ts.done[l])
			}
		}
	}
	return deps
}

// noteLaunch validates launch boundaries across capture and replay and,
// under bulk replay, seals the launch's merged completion event.
func (ts *traceState) noteLaunch(n int) {
	switch ts.mode {
	case traceCapturing:
		ts.tmpl.launches = append(ts.tmpl.launches, n)
	case traceReplaying:
		if ts.launchCursor >= len(ts.tmpl.launches) || ts.tmpl.launches[ts.launchCursor] != n {
			panic(fmt.Sprintf("rt: trace %d replay launch %d has %d ops, diverges from capture",
				ts.tmpl.id, ts.launchCursor, n))
		}
		if ts.bulk {
			ts.done[ts.launchCursor] = Merge(ts.events[ts.launchStart:ts.cursor]...)
		}
		ts.launchStart = ts.cursor
		ts.launchCursor++
	}
}
