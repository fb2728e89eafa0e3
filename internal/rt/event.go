// Package rt implements a Legion-like task runtime (paper §5): tasks are
// issued in program order, analyzed for dependencies through a region-tree
// version map, distributed to (simulated) nodes via sharding or slicing
// functors, and executed on per-node worker pools once their precondition
// events have triggered.
//
// The runtime executes real Go task functions against real region data; it
// is the substrate for the examples and the correctness tests. The
// distributed *cost* behaviour of the pipeline (who pays issuance, analysis
// and distribution overhead at scale) is modeled separately in
// internal/sim, which replays the same pipeline against a discrete-event
// cluster model.
package rt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Event is a one-shot completion signal. Events order task execution: each
// task carries a set of precondition events and triggers its own completion
// event when it finishes. An event may trigger *poisoned* — carrying the
// error of the task it represents — so that failures propagate along the
// same dependence edges as completions. Create events with NewEvent or use
// Completed.
//
// Dependents inside the runtime do not block on an event: they link a
// depEdge into its waiter list (onTrigger), and the triggering goroutine
// counts them down. A channel exists only once some caller blocks in Wait.
type Event struct {
	mu   sync.Mutex
	done atomic.Bool
	// err is written at most once, under mu before done is set; readers
	// must only load it after observing done, which gives the necessary
	// happens-before edge.
	err     error
	ch      chan struct{} // made on demand by blocking waiters; closed on trigger
	waiters *depEdge      // on-trigger hooks, run once by the trigger
}

// NewEvent returns an untriggered event.
func NewEvent() *Event { return &Event{} }

// Completed returns a pre-triggered event; tasks with no preconditions
// depend on it.
func Completed() *Event {
	e := NewEvent()
	e.done.Store(true)
	return e
}

// closedCh stands in for the wait channel of an already-triggered event.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Trigger fires the event. Triggering is idempotent.
func (e *Event) Trigger() { e.fire(nil) }

// Poison fires the event carrying err, marking the work it represents as
// failed. Dependents observe the error through Err, WaitErr or WaitAllErr.
// Poisoning an already-triggered event is a no-op; Poison(nil) is Trigger.
func (e *Event) Poison(err error) { e.fire(err) }

// fire triggers the event once: it records err, wakes blocked waiters and
// runs the on-trigger hooks on the calling goroutine.
func (e *Event) fire(err error) {
	e.mu.Lock()
	if e.done.Load() {
		e.mu.Unlock()
		return
	}
	e.err = err
	e.done.Store(true)
	ch, w := e.ch, e.waiters
	e.waiters = nil
	e.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	for w != nil {
		next := w.next
		w.next = nil
		w.to.depTriggered()
		w = next
	}
}

// onTrigger links ed into the event's hook list; ed.to is notified once
// the event triggers. It reports false, linking nothing, when the event has
// already triggered.
func (e *Event) onTrigger(ed *depEdge) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return false
	}
	ed.next = e.waiters
	e.waiters = ed
	return true
}

// doneCh returns a channel that is closed once the event has triggered.
func (e *Event) doneCh() <-chan struct{} {
	if e.done.Load() {
		return closedCh
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return closedCh
	}
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
}

// Err returns the poison error if the event has triggered poisoned, and nil
// if it triggered cleanly or has not triggered yet.
func (e *Event) Err() error {
	if e.done.Load() {
		return e.err
	}
	return nil
}

// Done reports whether the event has triggered without blocking.
func (e *Event) Done() bool { return e.done.Load() }

// Wait blocks until the event triggers.
func (e *Event) Wait() { <-e.doneCh() }

// WaitErr blocks until the event triggers and returns its poison error.
func (e *Event) WaitErr() error {
	<-e.doneCh()
	return e.err
}

// WaitContext blocks until the event triggers or ctx is done, returning the
// poison error or the context's error respectively.
func (e *Event) WaitContext(ctx context.Context) error {
	select {
	case <-e.doneCh():
		return e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitAll blocks until every event in evs has triggered.
func WaitAll(evs []*Event) {
	for _, e := range evs {
		e.Wait()
	}
}

// WaitAllErr blocks until every event in evs has triggered and returns the
// joined poison errors, nil if all triggered cleanly.
func WaitAllErr(evs []*Event) error {
	var errs []error
	for _, e := range evs {
		if err := e.WaitErr(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// depWaiter is notified, through its depEdges, as each event of its
// dependence set triggers.
type depWaiter interface{ depTriggered() }

// depEdge is one dependence edge: it links waiter to ev's hook list.
type depEdge struct {
	ev   *Event
	next *depEdge
	to   depWaiter
}

// join counts a dependence set down to zero. Its edges are one exact-size
// allocation and double as the hook-list nodes, so waiting on n events
// costs no goroutine and no allocation beyond the edges themselves.
type join struct {
	pending atomic.Int32
	deps    []depEdge
}

// arm links w to every event of evs and reports whether all of them have
// already triggered. Otherwise the last trigger's depTriggered call sees
// countDown report true. A guard count keeps triggers that race with arm
// from reaching zero before every edge is linked.
func (j *join) arm(evs []*Event, w depWaiter) bool {
	j.deps = make([]depEdge, len(evs))
	j.pending.Store(int32(len(evs)) + 1)
	done := int32(1)
	for i, e := range evs {
		j.deps[i] = depEdge{ev: e, to: w}
		if !e.onTrigger(&j.deps[i]) {
			done++
		}
	}
	return j.pending.Add(-done) == 0
}

// countDown accounts one triggered dependence; true means it was the last.
func (j *join) countDown() bool { return j.pending.Add(-1) == 0 }

// err returns the joined poison errors of the (all triggered) dependence
// set in edge order, nil if every event triggered cleanly, and releases
// the edges.
func (j *join) err() error {
	var errs []error
	for i := range j.deps {
		if err := j.deps[i].ev.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	j.deps = nil
	return errors.Join(errs...)
}

// merger is the waiter behind Merge.
type merger struct {
	join
	out *Event
}

func (m *merger) depTriggered() {
	if m.countDown() {
		m.out.Poison(m.err())
	}
}

// Merge returns an event that triggers once all inputs have triggered. If
// any input triggered poisoned, the merged event is poisoned with the
// joined errors. Merging zero events yields a completed event; merging one
// returns it unchanged.
func Merge(evs ...*Event) *Event {
	switch len(evs) {
	case 0:
		return Completed()
	case 1:
		return evs[0]
	}
	m := &merger{out: NewEvent()}
	if m.arm(evs, m) {
		m.out.Poison(m.err())
	}
	return m.out
}
