package rt

import (
	"fmt"
	"math/rand"
	"testing"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// access is one query with a buffer of its own: the query's dependence
// set, as a fresh slice.
func (vm *versionMap) access(tree region.TreeID, field region.FieldID,
	ivs []region.Interval, priv privilege.Privilege, redOp privilege.OpID, ev *Event) []*Event {

	var b depBuf
	b.reset(ev)
	vm.collect(tree, field, ivs, priv, redOp, ev, &b)
	return b.evs
}

func ivs(pairs ...int64) []region.Interval {
	out := make([]region.Interval, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, region.Interval{Lo: pairs[i], Hi: pairs[i+1]})
	}
	return out
}

func containsEvent(deps []*Event, e *Event) bool {
	for _, d := range deps {
		if d == e {
			return true
		}
	}
	return false
}

func TestVersionMapReadAfterWrite(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	if len(deps) != 0 {
		t.Errorf("first write deps = %d", len(deps))
	}
	r := NewEvent()
	deps = vm.access(1, 0, ivs(5, 14), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w) {
		t.Error("read overlapping write must depend on it")
	}
	// Read of a disjoint range has no deps.
	r2 := NewEvent()
	deps = vm.access(1, 0, ivs(20, 29), privilege.Read, privilege.OpNone, r2)
	if len(deps) != 0 {
		t.Errorf("disjoint read deps = %d", len(deps))
	}
}

func TestVersionMapWriteAfterRead(t *testing.T) {
	vm := newVersionMap(nil, nil)
	r1, r2 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r1)
	vm.access(1, 0, ivs(5, 14), privilege.Read, privilege.OpNone, r2)
	w := NewEvent()
	deps := vm.access(1, 0, ivs(7, 7), privilege.Write, privilege.OpNone, w)
	if !containsEvent(deps, r1) || !containsEvent(deps, r2) {
		t.Error("write must depend on both overlapping readers")
	}
}

func TestVersionMapWriteAfterWrite(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w1 := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w1)
	w2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w2)
	if !containsEvent(deps, w1) {
		t.Error("WAW must serialize")
	}
	// Third writer depends only on the second (epoch advanced).
	w3 := NewEvent()
	deps = vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w3)
	if containsEvent(deps, w1) || !containsEvent(deps, w2) {
		t.Errorf("third write should depend only on second")
	}
}

func TestVersionMapReadersDoNotDependOnEachOther(t *testing.T) {
	vm := newVersionMap(nil, nil)
	r1 := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r1)
	r2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r2)
	if len(deps) != 0 {
		t.Errorf("read-read deps = %d", len(deps))
	}
}

func TestVersionMapSameOpReductionsCommute(t *testing.T) {
	vm := newVersionMap(nil, nil)
	a, b := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, b)
	if containsEvent(deps, a) {
		t.Error("same-op reductions must not serialize")
	}
	// A read after the reductions depends on both.
	r := NewEvent()
	deps = vm.access(1, 0, ivs(3, 4), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, a) || !containsEvent(deps, b) {
		t.Error("read after reductions must depend on all reducers")
	}
}

func TestVersionMapDifferentOpReductionsSerialize(t *testing.T) {
	vm := newVersionMap(nil, nil)
	a, b := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, b)
	if !containsEvent(deps, a) {
		t.Error("different-op reductions must serialize")
	}
}

func TestVersionMapLaterReducersStillOrderAfterReaders(t *testing.T) {
	// Regression: a reduce used to clear the segment's readers after
	// depending on them, so a *later* same-operator reducer — which has no
	// edge through the pending reducers (they commute) — was left unordered
	// against the read (observed as a read racing a reducer's flush).
	vm := newVersionMap(nil, nil)
	r := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	a := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	b := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, b)
	if !containsEvent(deps, r) {
		t.Error("second same-op reduce must still be ordered after the earlier read")
	}
	if containsEvent(deps, a) {
		t.Error("same-op reductions must not serialize")
	}
}

func TestVersionMapOpSwitchKeepsDisplacedReducersOrdered(t *testing.T) {
	// When the reduction operator changes, the displaced reducers must keep
	// ordering later reducers of the new operator (which commute with each
	// other, so there is no transitive path through the first new-op
	// reducer).
	vm := newVersionMap(nil, nil)
	a := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	b := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, b)
	c := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, c)
	if !containsEvent(deps, a) {
		t.Error("new-op reduce must be ordered after the displaced old-op reducer")
	}
	if containsEvent(deps, b) {
		t.Error("same-op reductions must not serialize")
	}
}

// TestVersionMapConflictOrderingProperty checks the map's core guarantee on
// random access sequences: every pair of conflicting accesses (overlapping
// intervals, not read‖read, not same-operator reduce‖reduce) ends up
// transitively ordered by the returned dependence edges. Any dropped edge —
// like the two regressions above — shows up as an unreachable predecessor.
func TestVersionMapConflictOrderingProperty(t *testing.T) {
	type vmOp struct {
		lo, hi int64
		priv   privilege.Privilege
		redOp  privilege.OpID
	}
	privs := []privilege.Privilege{privilege.Read, privilege.Write, privilege.ReadWrite, privilege.Reduce}
	redOps := []privilege.OpID{privilege.OpSumF64, privilege.OpProdF64}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		ops := make([]vmOp, n)
		for i := range ops {
			lo := rng.Int63n(32)
			op := vmOp{lo: lo, hi: lo + rng.Int63n(32-lo), priv: privs[rng.Intn(len(privs))]}
			if op.priv == privilege.Reduce {
				op.redOp = redOps[rng.Intn(len(redOps))]
			}
			ops[i] = op
		}
		vm := newVersionMap(nil, nil)
		deps := make([][]*Event, n)
		idx := map[*Event]int{}
		for i, op := range ops {
			ev := NewEvent()
			idx[ev] = i
			deps[i] = vm.access(1, 0, ivs(op.lo, op.hi), op.priv, op.redOp, ev)
		}
		conflict := func(a, b vmOp) bool {
			switch {
			case a.hi < b.lo || b.hi < a.lo:
				return false
			case a.priv == privilege.Read && b.priv == privilege.Read:
				return false
			case a.priv == privilege.Reduce && b.priv == privilege.Reduce && a.redOp == b.redOp:
				return false
			}
			return true
		}
		for j := 0; j < n; j++ {
			reach := map[int]bool{}
			stack := []int{}
			for _, d := range deps[j] {
				stack = append(stack, idx[d])
			}
			for len(stack) > 0 {
				k := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[k] {
					continue
				}
				reach[k] = true
				for _, d := range deps[k] {
					stack = append(stack, idx[d])
				}
			}
			for i := 0; i < j; i++ {
				if conflict(ops[i], ops[j]) && !reach[i] {
					t.Fatalf("seed %d: op %d (%+v) not ordered after conflicting op %d (%+v)",
						seed, j, ops[j], i, ops[i])
				}
			}
		}
	}
}

func TestVersionMapReduceAfterWriteAndRead(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w, r := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	red := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, red)
	if !containsEvent(deps, w) || !containsEvent(deps, r) {
		t.Error("reduce must depend on prior writer and readers")
	}
}

func TestVersionMapSegmentSplitting(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 99), privilege.Write, privilege.OpNone, w)
	// Write to the middle: splits [0,99] into three segments.
	w2 := NewEvent()
	vm.access(1, 0, ivs(40, 59), privilege.Write, privilege.OpNone, w2)
	if n := vm.segmentCount(); n != 3 {
		t.Errorf("segments = %d, want 3", n)
	}
	// A read of the left part depends on w only.
	r := NewEvent()
	deps := vm.access(1, 0, ivs(0, 39), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w) || containsEvent(deps, w2) {
		t.Errorf("left read deps wrong")
	}
	// A read of the middle depends on w2 only.
	r2 := NewEvent()
	deps = vm.access(1, 0, ivs(45, 50), privilege.Read, privilege.OpNone, r2)
	if containsEvent(deps, w) || !containsEvent(deps, w2) {
		t.Errorf("middle read deps wrong")
	}
}

func TestVersionMapSplitSegmentsHaveIndependentEpochs(t *testing.T) {
	// Regression: splitting a segment used to copy the struct without
	// cloning its readers/reducers slices, so both halves shared one backing
	// array. An append through one half with spare capacity then overwrote
	// an event the sibling still referenced, silently dropping a dependence
	// edge (observed as a read racing a reducer's flush under -race).
	vm := newVersionMap(nil, nil)
	e1, e2, e3 := NewEvent(), NewEvent(), NewEvent()
	// Three same-op reductions: reducers slice ends with spare capacity.
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e1)
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e2)
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e3)
	// Split [0,7] into [0,3] and [4,7].
	r1 := NewEvent()
	vm.access(1, 0, ivs(0, 3), privilege.Read, privilege.OpNone, r1)
	// Append a reducer to each half; with a shared backing array the second
	// append clobbers the first half's new entry.
	e4, e5 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 3), privilege.Reduce, privilege.OpSumF64, e4)
	vm.access(1, 0, ivs(4, 7), privilege.Reduce, privilege.OpSumF64, e5)
	r2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 3), privilege.Read, privilege.OpNone, r2)
	if !containsEvent(deps, e4) {
		t.Error("read must depend on its half's own reducer (lost to sibling clobber?)")
	}
	if containsEvent(deps, e5) {
		t.Error("read must not depend on the other half's reducer")
	}
}

func TestVersionMapFieldsIndependent(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(1, 1, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 0 {
		t.Error("different fields must not interfere")
	}
}

func TestVersionMapTreesIndependent(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(2, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 0 {
		t.Error("different trees must not interfere")
	}
}

func TestVersionMapCompletedDepsRetained(t *testing.T) {
	// The dependence edge set must not depend on execution timing: an
	// already-triggered upstream event is still returned (waiting on it is
	// free), so trace capture sees every edge and dependents issued after
	// an upstream failure still observe its poison.
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	w.Trigger()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 1 || deps[0] != w {
		t.Errorf("deps = %v, want the completed writer retained", deps)
	}

	vm2 := newVersionMap(nil, nil)
	p := NewEvent()
	p.Poison(fmt.Errorf("upstream died"))
	vm2.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, p)
	r2 := NewEvent()
	deps = vm2.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r2)
	if err := WaitAllErr(deps); err == nil {
		t.Error("poison from a completed upstream writer must reach later dependents")
	}
}

func TestVersionMapLastEventsAndBulkWrite(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	evs := vm.lastEvents(1, 0, ivs(0, 9))
	if len(evs) != 1 || evs[0] != w {
		t.Errorf("lastEvents = %v", evs)
	}
	bulk := NewEvent()
	vm.bulkWrite(1, 0, ivs(0, 9), bulk)
	r := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, bulk) || containsEvent(deps, w) {
		t.Error("bulkWrite should replace the epoch")
	}
}

func TestVersionMapNonePrivilegeNoop(t *testing.T) {
	vm := newVersionMap(nil, nil)
	e := NewEvent()
	if deps := vm.access(1, 0, ivs(0, 9), privilege.None, privilege.OpNone, e); deps != nil {
		t.Error("None access should be a no-op")
	}
}

func TestVersionMapMultiIntervalAccess(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w1, w2 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w1)
	vm.access(1, 0, ivs(20, 29), privilege.Write, privilege.OpNone, w2)
	r := NewEvent()
	deps := vm.access(1, 0, ivs(5, 6, 25, 26), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w1) || !containsEvent(deps, w2) {
		t.Error("multi-interval read must collect deps from every interval")
	}
}

// TestDepBufMatchesMapReference drives the reused dependence buffer with
// random add streams — repeats, nil, the point's own event, and sets large
// enough to cross into the map index — and checks it against a map-based
// reference: the same set in first-seen order without duplicates, and the
// same distinct-edge count per query.
func TestDepBufMatchesMapReference(t *testing.T) {
	pool := make([]*Event, 2500)
	for i := range pool {
		pool[i] = NewEvent()
	}
	var b depBuf
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := pool[rng.Intn(len(pool))]
		b.reset(self)
		var order []*Event
		seen := map[*Event]bool{}
		width := []int{4, depBufLinear, depBufLinear + 2, len(pool)}[seed%4]
		for q := rng.Intn(5) + 1; q > 0; q-- {
			b.beginQuery()
			inQuery := map[*Event]bool{}
			for k := rng.Intn(3 * width); k > 0; k-- {
				var e *Event
				if rng.Intn(20) > 0 {
					e = pool[rng.Intn(width)]
				}
				b.add(e)
				if e == nil || e == self {
					continue
				}
				inQuery[e] = true
				if !seen[e] {
					seen[e] = true
					order = append(order, e)
				}
			}
			if b.queryEdges != len(inQuery) {
				t.Fatalf("seed %d: query counted %d edges, reference %d", seed, b.queryEdges, len(inQuery))
			}
		}
		if len(b.evs) != len(order) {
			t.Fatalf("seed %d: buffer holds %d events, reference %d", seed, len(b.evs), len(order))
		}
		for i := range order {
			if b.evs[i] != order[i] {
				t.Fatalf("seed %d: entry %d differs from the reference's first-seen order", seed, i)
			}
		}
	}
}

// TestVersionMapSharedBufferMatchesPerQuerySets replays random multi-query
// points on two identical version maps: one collecting each point's
// queries into a single reused buffer (the issue path), the other taking
// each query's set separately and unioning them in a map (the reference).
// The sets and the dependence-edge counters must agree, including for a
// write that closes an epoch of 2,000 readers.
func TestVersionMapSharedBufferMatchesPerQuerySets(t *testing.T) {
	type query struct {
		field  region.FieldID
		lo, hi int64
		priv   privilege.Privilege
		redOp  privilege.OpID
	}
	privs := []privilege.Privilege{privilege.Read, privilege.Write, privilege.ReadWrite, privilege.Reduce}
	redOps := []privilege.OpID{privilege.OpSumF64, privilege.OpProdF64}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var points [][]query
		if seed == 0 {
			for i := 0; i < 2000; i++ {
				points = append(points, []query{{lo: 0, hi: 63, priv: privilege.Read}})
			}
			points = append(points, []query{
				{lo: 0, hi: 31, priv: privilege.ReadWrite},
				{lo: 16, hi: 63, priv: privilege.Write},
			})
		}
		for i := 0; i < 300; i++ {
			qs := make([]query, rng.Intn(4)+1)
			for j := range qs {
				lo := rng.Int63n(64)
				qs[j] = query{field: region.FieldID(rng.Intn(2)), lo: lo, hi: lo + rng.Int63n(64-lo), priv: privs[rng.Intn(len(privs))]}
				if qs[j].priv == privilege.Reduce {
					qs[j].redOp = redOps[rng.Intn(len(redOps))]
				}
			}
			points = append(points, qs)
		}

		reg := metrics.NewRegistry()
		shared := newVersionMap(reg.Counter("q_shared", ""), reg.Counter("d_shared", ""))
		ref := newVersionMap(reg.Counter("q_ref", ""), reg.Counter("d_ref", ""))
		var b depBuf
		for i, qs := range points {
			ev := NewEvent()
			b.reset(ev)
			want := map[*Event]bool{}
			for _, q := range qs {
				shared.collect(1, q.field, ivs(q.lo, q.hi), q.priv, q.redOp, ev, &b)
				for _, d := range ref.access(1, q.field, ivs(q.lo, q.hi), q.priv, q.redOp, ev) {
					want[d] = true
				}
			}
			if len(b.evs) != len(want) {
				t.Fatalf("seed %d point %d: shared buffer has %d deps, reference %d", seed, i, len(b.evs), len(want))
			}
			for _, d := range b.evs {
				if !want[d] {
					t.Fatalf("seed %d point %d: shared buffer has a dependence the reference lacks", seed, i)
				}
			}
		}
		if got, want := shared.deps.Value(), ref.deps.Value(); got != want {
			t.Fatalf("seed %d: shared path counted %d edges, reference %d", seed, got, want)
		}
		if got, want := shared.queries.Value(), ref.queries.Value(); got != want {
			t.Fatalf("seed %d: shared path counted %d queries, reference %d", seed, got, want)
		}
	}
}
