package rt

import (
	"fmt"
	"sync"

	"indexlaunch/internal/obs"
)

// Execution: each node has ProcsPerNode long-lived workers pulling from
// the node's ready queue. A point task enters the queue when the last
// event of its dependence set triggers — counted down through the events'
// on-trigger hooks (join), so a waiting point costs no goroutine — and a
// speculative backup attempt enters the backup node's queue when its
// watchdog fires. The queue is unbounded: a worker completing a task
// pushes the successors it readied into queues it may itself serve, so a
// bounded queue could deadlock the pool.

// readyItem is one queued attempt: a point task that became ready, or a
// backup attempt of a straggling one.
type readyItem struct {
	tr     *taskRun
	backup bool
}

// readyQueue is one node's unbounded FIFO of ready attempts, a ring buffer
// that grows by doubling.
type readyQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []readyItem
	head   int
	n      int
	closed bool
}

func newReadyQueue() *readyQueue {
	q := &readyQueue{buf: make([]readyItem, 16)}
	q.cond.L = &q.mu
	return q
}

// push appends it; false means the queue is closed and it was not queued.
func (q *readyQueue) push(it readyItem) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == len(q.buf) {
		grown := make([]readyItem, 2*len(q.buf))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = it
	q.n++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop blocks until an item is queued and dequeues it; false means the
// queue was closed.
func (q *readyQueue) pop() (readyItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return readyItem{}, false
	}
	it := q.buf[q.head]
	q.buf[q.head] = readyItem{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return it, true
}

// len returns the number of queued items.
func (q *readyQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close stops the queue: later pushes fail, blocked workers return, and
// the items still queued are handed back to the caller.
func (q *readyQueue) close() []readyItem {
	q.mu.Lock()
	q.closed = true
	left := make([]readyItem, 0, q.n)
	for ; q.n > 0; q.n-- {
		left = append(left, q.buf[q.head])
		q.buf[q.head] = readyItem{}
		q.head = (q.head + 1) % len(q.buf)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return left
}

// startWorkers launches the per-node worker pools.
func (r *Runtime) startWorkers() {
	r.queues = make([]*readyQueue, r.cfg.Nodes)
	for n := range r.queues {
		r.queues[n] = newReadyQueue()
		for i := 0; i < r.cfg.ProcsPerNode; i++ {
			go r.work(n)
		}
	}
}

// work is one worker of node's pool: it runs ready attempts until Shutdown
// closes the queue.
func (r *Runtime) work(node int) {
	q := r.queues[node]
	for {
		it, ok := q.pop()
		if !ok {
			return
		}
		r.mx.ReadyTasks.Add(-1)
		r.runReady(it, node)
	}
}

// enqueue hands a ready attempt to node's workers. After Shutdown the
// attempt is dropped instead: a point task fails with ErrShutdown, and a
// backup attempt leaves its original to finish alone.
func (r *Runtime) enqueue(it readyItem, node int) {
	r.mx.ReadyTasks.Add(1)
	if r.queues[node].push(it) {
		return
	}
	r.mx.ReadyTasks.Add(-1)
	r.dropReady(it)
}

// dropReady fails an attempt that will never run because the runtime shut
// down.
func (r *Runtime) dropReady(it readyItem) {
	r.mx.InflightTasks.Add(-1)
	if it.backup {
		return
	}
	tr := it.tr
	tr.fut.complete(nil, &TaskError{Task: tr.name, Tag: tr.tag, Point: tr.point, Node: tr.node, Err: ErrShutdown})
}

// depTriggered is the point task's on-trigger hook: the last precondition
// to trigger makes it ready.
func (tr *taskRun) depTriggered() {
	if tr.countDown() {
		tr.rt.ready(tr)
	}
}

// ready queues a point task whose preconditions have all triggered on its
// node. Their joined poison errors are kept for the worker; a task that
// will run arms its straggler watchdog now: waiting for a worker counts
// toward the threshold, waiting on dependences does not.
func (r *Runtime) ready(tr *taskRun) {
	tr.cause = tr.err()
	if r.specOn && !tr.skips() {
		tr.spec = &specState{cancel: make(chan struct{})}
		r.armSpeculation(tr, tr.node)
	}
	r.enqueue(readyItem{tr: tr}, tr.node)
}

// skips reports whether the task's body is skipped: a precondition was
// poisoned and the failure policy is SkipDependents.
func (tr *taskRun) skips() bool {
	return tr.cause != nil && tr.rt.cfg.OnUpstreamFailure == SkipDependents
}

// runReady runs one dequeued attempt on node. A skipped point task does
// not run its body: the upstream failure cascades through its own event.
func (r *Runtime) runReady(it readyItem, node int) {
	tr := it.tr
	if !it.backup && tr.skips() {
		r.mx.TasksSkipped.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.MarkTC(tr.tc.Child(tcFaultSkip), node, obs.StageFault, tr.name, tr.tag, tr.point, prof.Now())
		}
		r.mx.InflightTasks.Add(-1)
		tr.fut.complete(nil, &TaskError{
			Task: tr.name, Tag: tr.tag, Point: tr.point, Node: node,
			Err: fmt.Errorf("%w: %w", ErrUpstreamFailed, tr.cause),
		})
		return
	}
	if !r.runAttempt(tr, node, it.backup) {
		r.mx.InflightTasks.Add(-1) // a committed attempt dropped it
	}
}
