package rt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"indexlaunch/internal/domain"
)

// Future is the eventual result of a single task: an opaque byte payload or
// an error. Futures are safe for concurrent use.
type Future struct {
	ev  *Event
	mu  sync.Mutex
	val []byte
	err error
}

func newFuture() *Future { return &Future{ev: NewEvent()} }

// complete records the task's result. A failure poisons the completion
// event so the error propagates along dependence edges.
func (f *Future) complete(val []byte, err error) {
	f.mu.Lock()
	f.val, f.err = val, err
	f.mu.Unlock()
	if err != nil {
		f.ev.Poison(err)
		return
	}
	f.ev.Trigger()
}

// Event returns the future's completion event.
func (f *Future) Event() *Event { return f.ev }

// Get blocks until the task completes and returns its payload.
func (f *Future) Get() ([]byte, error) {
	f.ev.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.err
}

// GetContext is Get bounded by a context, so a hung task cannot block the
// caller forever.
func (f *Future) GetContext(ctx context.Context) ([]byte, error) {
	if err := f.ev.WaitContext(ctx); err != nil && !f.ev.Done() {
		return nil, fmt.Errorf("rt: future: %w", err)
	}
	return f.Get()
}

// GetTimeout is Get with a deadline.
func (f *Future) GetTimeout(d time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return f.GetContext(ctx)
}

// GetF64 decodes the payload as a little-endian float64.
func (f *Future) GetF64() (float64, error) {
	b, err := f.Get()
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("rt: future payload is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// EncodeF64 renders v as a task result payload decodable by GetF64.
func EncodeF64(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// FutureMap is the result of an index launch: one future per launch point,
// in canonical (issuance) point order.
type FutureMap struct {
	pts  []pointFuture // one slab, canonical point order
	done *Event

	// index maps a point to its position in pts, built by the first At:
	// issuance never pays for it.
	indexOnce sync.Once
	index     map[domain.Point]int
}

type pointFuture struct {
	p domain.Point
	f Future
}

// newFutureMap allocates the futures of an n-point launch as one slab and
// their completion events as another. The slabs are separate because the
// version map keeps a launch's events as long as they are the last users
// of some data; the futures, and the payloads they hold, must not live
// that long.
func newFutureMap(n int) *FutureMap {
	m := &FutureMap{pts: make([]pointFuture, n)}
	evs := make([]Event, n)
	for i := range m.pts {
		m.pts[i].f.ev = &evs[i]
	}
	return m
}

// At returns the future for launch point p.
func (m *FutureMap) At(p domain.Point) (*Future, error) {
	m.indexOnce.Do(func() {
		m.index = make(map[domain.Point]int, len(m.pts))
		for i := range m.pts {
			m.index[m.pts[i].p] = i
		}
	})
	i, ok := m.index[p]
	if !ok {
		return nil, fmt.Errorf("rt: future map has no point %v", p)
	}
	return &m.pts[i].f, nil
}

// Len returns the number of point tasks in the map.
func (m *FutureMap) Len() int { return len(m.pts) }

// Event returns an event that triggers when every point task completes; it
// is poisoned if any task failed.
func (m *FutureMap) Event() *Event { return m.done }

// Wait blocks until every point task completes and returns the first error
// encountered (in canonical point order), if any.
func (m *FutureMap) Wait() error {
	m.done.Wait()
	for i := range m.pts {
		if _, err := m.pts[i].f.Get(); err != nil {
			return err
		}
	}
	return nil
}

// WaitErr blocks until every point task completes and returns the joined
// errors of every failed point, in canonical point order.
func (m *FutureMap) WaitErr() error {
	m.done.Wait()
	var errs []error
	for i := range m.pts {
		if _, err := m.pts[i].f.Get(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// WaitTimeout is Wait with a deadline: if some point task has not completed
// within d, it returns an error naming the first unfinished point instead
// of blocking forever.
func (m *FutureMap) WaitTimeout(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := m.done.WaitContext(ctx); err != nil && !m.done.Done() {
		unfinished := 0
		var first domain.Point
		for i := range m.pts {
			if !m.pts[i].f.ev.Done() {
				if unfinished == 0 {
					first = m.pts[i].p
				}
				unfinished++
			}
		}
		if unfinished > 0 {
			return fmt.Errorf("rt: future map: %w; %d point task(s) unfinished, first: point %v",
				err, unfinished, first)
		}
	}
	return m.Wait()
}

// SumF64 waits for every point task and sums their float64 payloads — the
// common "future map reduction" idiom for residuals and diagnostics.
func (m *FutureMap) SumF64() (float64, error) {
	if err := m.Wait(); err != nil {
		return 0, err
	}
	var s float64
	for i := range m.pts {
		v, err := m.pts[i].f.GetF64()
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s, nil
}

func (m *FutureMap) seal() {
	evs := make([]*Event, len(m.pts))
	for i := range m.pts {
		evs[i] = m.pts[i].f.ev
	}
	m.done = Merge(evs...)
}
