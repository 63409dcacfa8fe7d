package frontend

import (
	"cmp"
	"sync"
	"time"

	"pimgo/internal/core"
)

// intake is the client-facing half of the collector: the pending/spare
// double buffer, the pooled futures, and the four public single-key
// operations. The collector's run loop swaps and flushes pending; intake
// supplies everything up to that hand-off, so both frontends expose the
// identical zero-alloc enqueue/reply contract.
type intake[K cmp.Ordered, V any] struct {
	mu      sync.Mutex
	pending []*future[K, V] // client-appended, collector-swapped
	spare   []*future[K, V] // the other half of the double buffer
	closed  bool

	notify chan struct{} // cap 1: "pending (or control work) may be ready"
	done   chan struct{} // closed when the collector exits
	pool   chan *future[K, V]
}

func (q *intake[K, V]) init(maxBatch int) {
	q.pending = make([]*future[K, V], 0, maxBatch)
	q.spare = make([]*future[K, V], 0, maxBatch)
	q.notify = make(chan struct{}, 1)
	q.done = make(chan struct{})
	q.pool = make(chan *future[K, V], poolCap(maxBatch))
}

// poolCap sizes the future free-list: enough for several flushes' worth of
// concurrent clients; beyond it, bursts fall back to the allocator.
func poolCap(maxBatch int) int {
	c := 4 * maxBatch
	if c < 1024 {
		c = 1024
	}
	return c
}

// take pops a pooled future (or allocates one on burst).
func (q *intake[K, V]) take() *future[K, V] {
	select {
	case fu := <-q.pool:
		fu.err = nil
		return fu
	default:
		return &future[K, V]{ready: make(chan struct{}, 1)}
	}
}

// put recycles a future, zeroing value-carrying fields so the pool does not
// retain caller data.
func (q *intake[K, V]) put(fu *future[K, V]) {
	var zk K
	var zv V
	fu.key, fu.rkey = zk, zk
	fu.val, fu.rval = zv, zv
	fu.err = nil
	select {
	case q.pool <- fu:
	default: // pool full: let the GC have it
	}
}

// enqueue appends fu to the pending batch and wakes the collector.
func (q *intake[K, V]) enqueue(fu *future[K, V]) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return core.ErrClosed
	}
	fu.enq = time.Now()
	q.pending = append(q.pending, fu)
	q.mu.Unlock()
	q.wake()
	return nil
}

// wake pokes the collector's wakeup channel (lossy: cap 1 is enough, the
// collector re-checks all work sources every iteration).
func (q *intake[K, V]) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Get returns the key's presence and value as of this op's flush (after
// that flush's writes).
func (q *intake[K, V]) Get(key K) (core.GetResult[V], error) {
	fu := q.take()
	fu.kind, fu.key = opGet, key
	if err := q.enqueue(fu); err != nil {
		q.put(fu)
		return core.GetResult[V]{}, err
	}
	<-fu.ready
	res := core.GetResult[V]{Found: fu.found, Value: fu.rval}
	err := fu.err
	q.put(fu)
	return res, err
}

// Upsert inserts or overwrites the key, reporting whether it was inserted
// (absent at this op's point in its flush's arrival order).
func (q *intake[K, V]) Upsert(key K, val V) (bool, error) {
	fu := q.take()
	fu.kind, fu.key, fu.val = opUpsert, key, val
	if err := q.enqueue(fu); err != nil {
		q.put(fu)
		return false, err
	}
	<-fu.ready
	inserted, err := fu.found, fu.err
	q.put(fu)
	return inserted, err
}

// Delete removes the key, reporting whether it was present (at this op's
// point in its flush's arrival order).
func (q *intake[K, V]) Delete(key K) (bool, error) {
	fu := q.take()
	fu.kind, fu.key = opDelete, key
	if err := q.enqueue(fu); err != nil {
		q.put(fu)
		return false, err
	}
	<-fu.ready
	present, err := fu.found, fu.err
	q.put(fu)
	return present, err
}

// Successor returns the smallest key ≥ key with its value, as of this op's
// flush (after that flush's writes).
func (q *intake[K, V]) Successor(key K) (core.SearchResult[K, V], error) {
	fu := q.take()
	fu.kind, fu.key = opSucc, key
	if err := q.enqueue(fu); err != nil {
		q.put(fu)
		return core.SearchResult[K, V]{}, err
	}
	<-fu.ready
	res := core.SearchResult[K, V]{Found: fu.found, Key: fu.rkey, Value: fu.rval}
	err := fu.err
	q.put(fu)
	return res, err
}
