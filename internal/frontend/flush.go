package frontend

import (
	"cmp"
	"time"

	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// flushWS is the collector-owned scratch for one flush. Every slice and the
// map ping-pong to high-water capacity, so steady-state flushes allocate
// nothing.
type flushWS[K cmp.Ordered, V any] struct {
	// Write coalescing: wfut holds the flush's write futures in arrival
	// order; wprev[i] is the index of the previous write to the same key
	// (-1 if i is the key's first); widx maps each written key to its last
	// (final) write. chain is replay scratch.
	widx  map[K]int32
	wfut  []*future[K, V]
	wprev []int32
	chain []int32

	// Final writes submitted to the Map: the coalesced Upsert batch, the
	// coalesced Delete batch, and for each its wfut index (to seed replay).
	ukeys []K
	uvals []V
	ufin  []int32
	ures  []bool
	dkeys []K
	dfin  []int32
	dres  []bool

	// Reads, demultiplexed positionally.
	gkeys []K
	gfut  []*future[K, V]
	gres  []core.GetResult[V]
	skeys []K
	sfut  []*future[K, V]
	sres  []core.SearchResult[K, V]
}

func (ws *flushWS[K, V]) init() { ws.widx = make(map[K]int32) }

// reset readies the workspace for the next flush, zeroing pointer-bearing
// slices so parked capacity does not pin futures.
func (ws *flushWS[K, V]) reset() {
	clear(ws.widx)
	clear(ws.wfut)
	ws.wfut = ws.wfut[:0]
	ws.wprev = ws.wprev[:0]
	ws.ukeys = ws.ukeys[:0]
	ws.uvals = ws.uvals[:0]
	ws.ufin = ws.ufin[:0]
	ws.dkeys = ws.dkeys[:0]
	ws.dfin = ws.dfin[:0]
	ws.gkeys = ws.gkeys[:0]
	clear(ws.gfut)
	ws.gfut = ws.gfut[:0]
	ws.skeys = ws.skeys[:0]
	clear(ws.sfut)
	ws.sfut = ws.sfut[:0]
}

// partition sorts the batch into the workspace's per-kind sub-batches,
// coalescing conflicting writes per key (last writer wins), and accumulates
// the queue-wait statistics. It returns the number of ops that will reach
// the backing store. Shared by the single-Map Frontend and the
// ClusterFrontend — the coalescing semantics are identical; only what the
// sub-batches are submitted to differs.
func (ws *flushWS[K, V]) partition(batch []*future[K, V], start time.Time, queueWait, maxQueueWait *time.Duration) (submitted int) {
	ws.reset()
	for _, fu := range batch {
		w := start.Sub(fu.enq)
		*queueWait += w
		if w > *maxQueueWait {
			*maxQueueWait = w
		}
		switch fu.kind {
		case opGet:
			ws.gkeys = append(ws.gkeys, fu.key)
			ws.gfut = append(ws.gfut, fu)
		case opSucc:
			ws.skeys = append(ws.skeys, fu.key)
			ws.sfut = append(ws.sfut, fu)
		default: // opUpsert, opDelete
			i := int32(len(ws.wfut))
			prev, dup := ws.widx[fu.key]
			if !dup {
				prev = -1
			}
			ws.wfut = append(ws.wfut, fu)
			ws.wprev = append(ws.wprev, prev)
			ws.widx[fu.key] = i
		}
	}

	// Pick each key's final write, in arrival order of the finals. The
	// Upsert and Delete sub-batches then touch disjoint key sets: a key's
	// single surviving write is either an upsert or a delete.
	for i, fu := range ws.wfut {
		if ws.widx[fu.key] != int32(i) {
			continue // superseded; answered by replay below
		}
		if fu.kind == opUpsert {
			ws.ukeys = append(ws.ukeys, fu.key)
			ws.uvals = append(ws.uvals, fu.val)
			ws.ufin = append(ws.ufin, int32(i))
		} else {
			ws.dkeys = append(ws.dkeys, fu.key)
			ws.dfin = append(ws.dfin, int32(i))
		}
	}
	return len(ws.ukeys) + len(ws.dkeys) + len(ws.gkeys) + len(ws.skeys)
}

// flush executes one coalesced batch: sort ops by kind, coalesce conflicting
// writes per key (last writer wins), run writes then reads through the Map,
// and reply to every future. Error semantics mirror the core batch engine:
// if a sub-batch fails, the error is delivered to every op of the flush not
// yet answered, and — like core's unrecoverable-fault errors — writes of an
// earlier sub-batch may already have been applied.
func (f *Frontend[K, V]) flush(batch []*future[K, V]) {
	start := time.Now()
	ws := &f.ws
	var queueWait, maxQueueWait time.Duration
	submitted := ws.partition(batch, start, &queueWait, &maxQueueWait)

	// Writes before reads: the flush's linearization applies every write,
	// then evaluates every read against the post-write state.
	if len(ws.ukeys) > 0 {
		res, _, err := f.m.TryUpsertInto(ws.ukeys, ws.uvals, ws.ures)
		if err != nil {
			deliverErr(batch, err)
			f.finish(start, len(batch), submitted, len(batch), queueWait, maxQueueWait)
			return
		}
		ws.ures = res
	}
	if len(ws.dkeys) > 0 {
		res, _, err := f.m.TryDeleteInto(ws.dkeys, ws.dres)
		if err != nil {
			deliverErr(batch, err)
			f.finish(start, len(batch), submitted, len(batch), queueWait, maxQueueWait)
			return
		}
		ws.dres = res
	}

	// The Map's reply to a final write tells us the key's presence at the
	// start of the flush (upsert: inserted ⇒ absent; delete: found ⇒
	// present). Replaying the key's op chain against that bit yields the
	// exact reply every op — superseded or final — would have received had
	// it run as its own batch.
	for x, i := range ws.ufin {
		ws.replay(i, !ws.ures[x])
	}
	for x, i := range ws.dfin {
		ws.replay(i, ws.dres[x])
	}

	if len(ws.gkeys) > 0 {
		res, _, err := f.m.TryGetInto(ws.gkeys, ws.gres)
		if err != nil {
			deliverErr(ws.gfut, err)
			deliverErr(ws.sfut, err)
			f.finish(start, len(batch), submitted, len(ws.gfut)+len(ws.sfut), queueWait, maxQueueWait)
			return
		}
		ws.gres = res
		for i, fu := range ws.gfut {
			fu.found = res[i].Found
			fu.rval = res[i].Value
			fu.ready <- struct{}{}
		}
	}
	if len(ws.skeys) > 0 {
		res, _, err := f.m.TrySuccessorInto(ws.skeys, ws.sres)
		if err != nil {
			deliverErr(ws.sfut, err)
			f.finish(start, len(batch), submitted, len(ws.sfut), queueWait, maxQueueWait)
			return
		}
		ws.sres = res
		for i, fu := range ws.sfut {
			fu.found = res[i].Found
			fu.rkey = res[i].Key
			fu.rval = res[i].Value
			fu.ready <- struct{}{}
		}
	}
	f.finish(start, len(batch), submitted, 0, queueWait, maxQueueWait)
}

// replay walks one key's write chain (ending at wfut index last) in arrival
// order, starting from the key's presence at flush start, and replies to
// every write future in the chain.
func (ws *flushWS[K, V]) replay(last int32, present bool) {
	ws.chain = ws.chain[:0]
	for j := last; j >= 0; j = ws.wprev[j] {
		ws.chain = append(ws.chain, j)
	}
	for x := len(ws.chain) - 1; x >= 0; x-- {
		fu := ws.wfut[ws.chain[x]]
		if fu.kind == opUpsert {
			fu.found = !present // inserted iff absent
			present = true
		} else {
			fu.found = present // deleted iff present
			present = false
		}
		fu.ready <- struct{}{}
	}
}

// failChain answers every write future in one key's chain (ending at wfut
// index last) with err, returning the number answered. The ClusterFrontend
// uses it when a final write lands on a down shard: the key's presence is
// unknowable, so no op in the chain can be replayed.
func (ws *flushWS[K, V]) failChain(last int32, err error) int {
	n := 0
	for j := last; j >= 0; j = ws.wprev[j] {
		fu := ws.wfut[j]
		fu.err = err
		fu.ready <- struct{}{}
		n++
	}
	return n
}

// deliverErr answers every future in futs with err.
func deliverErr[K cmp.Ordered, V any](futs []*future[K, V], err error) {
	for _, fu := range futs {
		fu.err = err
		fu.ready <- struct{}{}
	}
}

// finish records the flush in the collector stats and emits a FlushStat to
// the Map's trace sink if it implements trace.FlushSink.
func (f *Frontend[K, V]) finish(start time.Time, ops, submitted, errs int, queueWait, maxQueueWait time.Duration) {
	flushTime := time.Since(start)
	if sink, ok := f.m.TraceSink().(trace.FlushSink); ok {
		sink.Flush(trace.FlushStat{
			Ops:          ops,
			Submitted:    submitted,
			QueueWait:    queueWait,
			MaxQueueWait: maxQueueWait,
			FlushTime:    flushTime,
		})
	}
	f.mu.Lock()
	st := &f.stats
	st.Ops += int64(ops)
	st.Flushes++
	st.Submitted += int64(submitted)
	if ops > st.MaxFlush {
		st.MaxFlush = ops
	}
	st.QueueWait += queueWait
	if maxQueueWait > st.MaxQueueWait {
		st.MaxQueueWait = maxQueueWait
	}
	st.FlushTime += flushTime
	st.Errors += int64(errs)
	f.mu.Unlock()
}
