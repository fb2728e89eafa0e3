package rt

import (
	"sort"
	"sync"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// versionMap tracks, per (tree, field), the last tasks to have read, written
// or reduced each linearized interval of the root domain, and answers
// dependence queries for new accesses. It is the in-process analog of the
// paper's distributed bounding-volume hierarchy used by physical analysis
// (§5): queries and updates cost O(log E + K) where E is the number of
// tracked segments and K the number overlapped.
type versionMap struct {
	mu     sync.Mutex
	fields map[fieldKey]*fieldState

	// queries counts access calls; deps counts dependence edges returned.
	// The counters are the runtime's registry instruments, so Stats and
	// /metrics read them without taking vm.mu.
	queries *metrics.Counter
	deps    *metrics.Counter
}

type fieldKey struct {
	tree  region.TreeID
	field region.FieldID
}

type fieldState struct {
	segs []segment // sorted by lo, pairwise disjoint
}

// segment is the epoch state of one interval of a field: the last write
// event, readers since that write, and pending reducers with their operator.
type segment struct {
	lo, hi   int64
	writer   *Event
	readers  []*Event
	redOp    privilege.OpID
	reducers []*Event
}

func newVersionMap(queries, deps *metrics.Counter) *versionMap {
	return &versionMap{fields: map[fieldKey]*fieldState{}, queries: queries, deps: deps}
}

// collect registers an access to the given intervals with privilege priv
// and completion event ev, adding the precondition events the access must
// wait for to buf (the caller's dedup buffer, see depBuf). Intervals must
// be sorted and disjoint (as produced by region.IntervalsOf).
//
// Already-done events stay in the dependence set: waiting on a triggered
// event is free, and filtering them would make the edge set depend on
// execution timing — dropping launch-ordering edges from trace capture and
// hiding upstream poison from dependents issued after the failure.
func (vm *versionMap) collect(tree region.TreeID, field region.FieldID,
	ivs []region.Interval, priv privilege.Privilege, redOp privilege.OpID, ev *Event, buf *depBuf) {

	if priv == privilege.None || len(ivs) == 0 {
		return
	}
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.queries.Inc()

	key := fieldKey{tree: tree, field: field}
	fs := vm.fields[key]
	if fs == nil {
		fs = &fieldState{}
		vm.fields[key] = fs
	}
	buf.beginQuery()
	for _, iv := range ivs {
		fs.accessInterval(iv.Lo, iv.Hi, priv, redOp, ev, buf)
	}
	vm.deps.Add(int64(buf.queryEdges))
}

// depBufLinear is the dependence-set size up to which depBuf deduplicates
// by linear scan; beyond it a map index takes over, so a write after
// thousands of readers stays linear in their number.
const depBufLinear = 32

// depBuf accumulates the deduplicated dependence set of one point task
// across all its version-map queries. The issuing goroutine owns one and
// reuses it point after point, so collecting dependences allocates nothing
// in the steady state. Each query also counts its own distinct edges
// (queryEdges): the version map's edge counter keeps its per-query meaning
// even though the set is shared by the point's queries.
type depBuf struct {
	self  *Event   // the point's own completion event, never a dependence
	evs   []*Event // the set, in first-seen order
	query []uint32 // per entry, the last query that reported it
	index map[*Event]int
	q     uint32
	// queryEdges counts the distinct edges of the current query.
	queryEdges int
}

// reset empties the buffer for the next point, whose event is self.
func (b *depBuf) reset(self *Event) {
	clear(b.evs) // drop references so finished events can be collected
	b.evs = b.evs[:0]
	b.query = b.query[:0]
	if len(b.index) > 0 {
		clear(b.index)
	}
	b.self = self
}

// beginQuery starts counting a new query's distinct edges.
func (b *depBuf) beginQuery() {
	b.q++
	b.queryEdges = 0
}

// add records dependence e for the current query; a nil buffer discards
// it.
func (b *depBuf) add(e *Event) {
	if b == nil || e == nil || e == b.self {
		return
	}
	i := -1
	if len(b.evs) > depBufLinear {
		if j, ok := b.index[e]; ok {
			i = j
		}
	} else {
		for j, x := range b.evs {
			if x == e {
				i = j
				break
			}
		}
	}
	switch {
	case i < 0:
		b.evs = append(b.evs, e)
		b.query = append(b.query, b.q)
		if n := len(b.evs); n > depBufLinear {
			if b.index == nil {
				b.index = map[*Event]int{}
			}
			if n == depBufLinear+1 {
				for j, x := range b.evs {
					b.index[x] = j
				}
			} else {
				b.index[e] = n - 1
			}
		}
	case b.query[i] == b.q:
		return // already counted by this query
	default:
		b.query[i] = b.q
	}
	b.queryEdges++
}

// accessInterval walks the segments overlapping [lo, hi], splitting at the
// boundaries, applies the access to each covered piece, and creates fresh
// segments for uncovered gaps.
func (fs *fieldState) accessInterval(lo, hi int64, priv privilege.Privilege,
	redOp privilege.OpID, ev *Event, deps *depBuf) {

	i := sort.Search(len(fs.segs), func(i int) bool { return fs.segs[i].hi >= lo })
	cur := lo
	for cur <= hi {
		if i >= len(fs.segs) || fs.segs[i].lo > hi {
			// Tail gap: the rest of [cur, hi] is untracked.
			fs.insertSegment(i, freshSegment(cur, hi, priv, redOp, ev))
			return
		}
		s := &fs.segs[i]
		if s.lo > cur {
			// Leading gap before this segment.
			gapHi := s.lo - 1
			fs.insertSegment(i, freshSegment(cur, gapHi, priv, redOp, ev))
			cur = gapHi + 1
			i++ // past the inserted gap segment; s shifted right by one
			continue
		}
		// s overlaps cur. Split off any prefix of s before cur.
		if s.lo < cur {
			prefix := s.cloneEpoch()
			prefix.hi = cur - 1
			s.lo = cur
			fs.insertSegment(i, prefix)
			i++
			s = &fs.segs[i]
		}
		// Split off any suffix of s beyond hi.
		if s.hi > hi {
			suffix := s.cloneEpoch()
			suffix.lo = hi + 1
			s.hi = hi
			fs.insertSegment(i+1, suffix)
			s = &fs.segs[i]
		}
		s.apply(priv, redOp, ev, deps)
		cur = s.hi + 1
		i++
	}
}

// cloneEpoch copies s with independent readers/reducers slices. Segment
// splits must not share backing arrays: sibling segments append to their
// epoch lists independently, and an append through one header with spare
// capacity would overwrite an event the other still references — silently
// dropping a dependence edge.
func (s *segment) cloneEpoch() segment {
	c := *s
	c.readers = append([]*Event(nil), s.readers...)
	c.reducers = append([]*Event(nil), s.reducers...)
	return c
}

func freshSegment(lo, hi int64, priv privilege.Privilege, redOp privilege.OpID, ev *Event) segment {
	s := segment{lo: lo, hi: hi}
	s.apply(priv, redOp, ev, nil)
	return s
}

// apply updates the segment's epoch state for an access and records the
// dependence edges in deps (which may be nil for fresh segments). A write
// closes the epoch and reuses the readers and reducers backing arrays for
// the next one; cloneEpoch keeps split segments from sharing them.
func (s *segment) apply(priv privilege.Privilege, redOp privilege.OpID, ev *Event, deps *depBuf) {
	switch {
	case priv == privilege.Read:
		// Read-after-write and read-after-reduce.
		if len(s.reducers) > 0 {
			for _, r := range s.reducers {
				deps.add(r)
			}
		} else {
			deps.add(s.writer)
		}
		s.readers = append(s.readers, ev)

	case priv == privilege.Reduce:
		// Reduce-after-write and reduce-after-read; same-operator pending
		// reductions commute, different operators serialize. Readers stay in
		// the epoch: a later same-operator reducer has no edge through the
		// pending reducers (they commute), so dropping the readers here would
		// leave it unordered against a read it must follow. Only a write
		// closes the epoch and clears them.
		deps.add(s.writer)
		for _, r := range s.readers {
			deps.add(r)
		}
		if len(s.reducers) > 0 && s.redOp != redOp {
			for _, r := range s.reducers {
				deps.add(r)
			}
			// The displaced reducers keep ordering obligations against
			// later reducers of the new operator; track them as readers so
			// those edges (and a closing write's) still materialize.
			s.readers = append(s.readers, s.reducers...)
			s.reducers = emptied(s.reducers)
		}
		s.redOp = redOp
		s.reducers = append(s.reducers, ev)

	default: // Write, ReadWrite
		deps.add(s.writer)
		for _, r := range s.readers {
			deps.add(r)
		}
		for _, r := range s.reducers {
			deps.add(r)
		}
		s.writer = ev
		s.readers = emptied(s.readers)
		s.reducers = emptied(s.reducers)
		s.redOp = privilege.OpNone
	}
}

// emptied truncates an epoch list for reuse, clearing its entries so the
// closed epoch's events can be collected.
func emptied(evs []*Event) []*Event {
	clear(evs)
	return evs[:0]
}

func (fs *fieldState) insertSegment(i int, s segment) {
	fs.segs = append(fs.segs, segment{})
	copy(fs.segs[i+1:], fs.segs[i:])
	fs.segs[i] = s
}

// bulkWrite marks the given intervals as last written by ev without
// computing dependencies; used by trace replay to restore version state in
// one step after skipping per-task analysis.
func (vm *versionMap) bulkWrite(tree region.TreeID, field region.FieldID, ivs []region.Interval, ev *Event) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	key := fieldKey{tree: tree, field: field}
	fs := vm.fields[key]
	if fs == nil {
		fs = &fieldState{}
		vm.fields[key] = fs
	}
	for _, iv := range ivs {
		fs.accessInterval(iv.Lo, iv.Hi, privilege.Write, privilege.OpNone, ev, nil)
	}
}

// lastEvents returns the merged set of all events currently recorded for the
// given intervals (used by trace replay to order a replayed trace after
// everything it reads or overwrites).
func (vm *versionMap) lastEvents(tree region.TreeID, field region.FieldID, ivs []region.Interval) []*Event {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	fs := vm.fields[fieldKey{tree: tree, field: field}]
	if fs == nil {
		return nil
	}
	set := map[*Event]struct{}{}
	for _, iv := range ivs {
		i := sort.Search(len(fs.segs), func(i int) bool { return fs.segs[i].hi >= iv.Lo })
		for ; i < len(fs.segs) && fs.segs[i].lo <= iv.Hi; i++ {
			s := &fs.segs[i]
			if s.writer != nil {
				set[s.writer] = struct{}{}
			}
			for _, r := range s.readers {
				set[r] = struct{}{}
			}
			for _, r := range s.reducers {
				set[r] = struct{}{}
			}
		}
	}
	out := make([]*Event, 0, len(set))
	for e := range set {
		// Finished events are elided (observing Done establishes the
		// ordering already) — unless poisoned, so that a replayed episode
		// still observes upstream failure.
		if !e.Done() || e.Err() != nil {
			out = append(out, e)
		}
	}
	return out
}

// segmentCount returns the number of tracked segments (diagnostics).
func (vm *versionMap) segmentCount() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	n := 0
	for _, fs := range vm.fields {
		n += len(fs.segs)
	}
	return n
}
