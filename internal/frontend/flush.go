package frontend

import (
	"cmp"
	"time"
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

	// Final writes submitted to the executor: the coalesced Upsert batch,
	// the coalesced Delete batch, and for each its wfut index (to seed
	// replay).
	ukeys []K
	uvals []V
	ufin  []int32
	dkeys []K
	dfin  []int32

	// Reads, demultiplexed positionally.
	gkeys []K
	gfut  []*future[K, V]
	skeys []K
	sfut  []*future[K, V]
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
// the executor.
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

// flush executes one coalesced batch: sort ops by kind, coalesce
// conflicting writes per key (last writer wins), run writes then reads
// through the executor, and reply to every future. Writes before reads is
// the flush's linearization: every write is applied — on a cluster, acked
// by every shard — before any read, in particular the Successor broadcast,
// is submitted.
//
// Errors follow the executor. A whole-batch error on a write sub-batch
// fails every op of the flush; on a read sub-batch it fails that and every
// later read. As with core's unrecoverable-fault errors, writes of an
// earlier sub-batch may already have been applied. A per-key error fails
// that key's op, and a final write's error fails its key's whole write
// chain, since the key's presence is unknowable.
func (c *collector[K, V]) flush(batch []*future[K, V]) {
	start := time.Now()
	ws := &c.ws
	var queueWait, maxQueueWait time.Duration
	submitted := ws.partition(batch, start, &queueWait, &maxQueueWait)
	errs := 0

	var ures, dres []bool
	var uerrs, derrs []error
	var err error
	if len(ws.ukeys) > 0 {
		if ures, uerrs, err = c.ex.upsert(ws.ukeys, ws.uvals); err != nil {
			deliverErr(batch, err)
			c.finish(start, len(batch), submitted, len(batch), queueWait, maxQueueWait)
			return
		}
	}
	if len(ws.dkeys) > 0 {
		if dres, derrs, err = c.ex.delete(ws.dkeys); err != nil {
			deliverErr(batch, err)
			c.finish(start, len(batch), submitted, len(batch), queueWait, maxQueueWait)
			return
		}
	}

	// The reply to a final write tells us the key's presence at the start
	// of the flush (upsert: inserted ⇒ absent; delete: found ⇒ present).
	// Replaying the key's op chain against that bit yields the exact reply
	// every op — superseded or final — would have received had it run as
	// its own batch.
	for x, i := range ws.ufin {
		if uerrs != nil && uerrs[x] != nil {
			errs += ws.failChain(i, uerrs[x])
		} else {
			ws.replay(i, !ures[x])
		}
	}
	for x, i := range ws.dfin {
		if derrs != nil && derrs[x] != nil {
			errs += ws.failChain(i, derrs[x])
		} else {
			ws.replay(i, dres[x])
		}
	}

	if len(ws.gkeys) > 0 {
		res, perKey, err := c.ex.get(ws.gkeys)
		if err != nil {
			deliverErr(ws.gfut, err)
			deliverErr(ws.sfut, err)
			c.finish(start, len(batch), submitted, errs+len(ws.gfut)+len(ws.sfut), queueWait, maxQueueWait)
			return
		}
		for i, fu := range ws.gfut {
			if perKey != nil && perKey[i] != nil {
				fu.err = perKey[i]
				errs++
			} else {
				fu.found = res[i].Found
				fu.rval = res[i].Value
			}
			fu.ready <- struct{}{}
		}
	}
	if len(ws.skeys) > 0 {
		res, perKey, err := c.ex.successor(ws.skeys)
		if err != nil {
			deliverErr(ws.sfut, err)
			c.finish(start, len(batch), submitted, errs+len(ws.sfut), queueWait, maxQueueWait)
			return
		}
		for i, fu := range ws.sfut {
			if perKey != nil && perKey[i] != nil {
				fu.err = perKey[i]
				errs++
			} else {
				fu.found = res[i].Found
				fu.rkey = res[i].Key
				fu.rval = res[i].Value
			}
			fu.ready <- struct{}{}
		}
	}
	c.finish(start, len(batch), submitted, errs, queueWait, maxQueueWait)
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
// index last) with err, returning the number answered. flush uses it when
// the executor fails a final write on its own (a cluster key on a down
// shard): the key's presence is unknowable, so no op in the chain can be
// replayed.
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
