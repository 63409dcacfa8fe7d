package core

import (
	"cmp"

	"pimgo/internal/cpu"
	"pimgo/internal/pim"
)

// RangeAuto executes a batch of range operations, dispatching each to the
// cheaper execution strategy — the hybrid §5.2 suggests in passing
// ("Alternatively, we could apply the algorithm from §5.1 to all large
// ranges").
//
// Range sizes are estimated from the replicated upper part: a range
// holding K pairs contains ≈ K/P upper-part leaves (each survives the
// lower part with probability 1/P), and counting upper leaves is local
// work on any single module. One O(log n + log P) task per op, spread over
// random modules, decides the dispatch; ops with ≥ log P upper leaves in
// range (≈ P·log P pairs, the total-work crossover) run broadcast (§5.1),
// the rest run as one tree batch (§5.2), split only where batch order
// demands it.
//
// Ops apply in batch order, as with either strategy alone, and results
// are in input order and identical to either strategy's.
func (m *Map[K, V]) RangeAuto(ops []RangeOp[K, V]) ([]RangeResult[K, V], BatchStats) {
	tr, c := m.beginBatch("range_auto", len(ops))
	B := len(ops)
	out := make([]RangeResult[K, V], B)
	if B == 0 {
		return out, m.endBatch(tr, c, 0, 0, 0)
	}
	c.Tracker().Alloc(int64(4 * B))
	defer c.Tracker().Free(int64(4 * B))

	big := m.estimateBig(c, ops)
	// Large ranges run broadcast, one at a time, as they come (each already
	// touches every module; batching them adds nothing); small ranges
	// collect into one tree batch. A large op that overlaps a pending small
	// op, with a transform on either side, would overtake it, so the
	// pending small ops run first. Overlap is tested against the hulls of
	// the pending ops and of the pending transforms: a batch may split
	// more often than it must, but never out of batch order.
	var small []int
	var all, tf hull[K]
	flush := func() {
		if len(small) == 0 {
			return
		}
		smallOps := make([]RangeOp[K, V], len(small))
		for j, i := range small {
			smallOps[j] = ops[i]
		}
		res, _, _ := m.rangeTreeInner(c, smallOps)
		for j, i := range small {
			out[i] = res[j]
		}
		small, all, tf = small[:0], hull[K]{}, hull[K]{}
	}
	c.WorkFlat(int64(B))
	for i, op := range ops {
		if !big[i] {
			small = append(small, i)
			all.add(op.Lo, op.Hi)
			if op.Kind == RangeTransform {
				tf.add(op.Lo, op.Hi)
			}
			continue
		}
		if tf.meets(op.Lo, op.Hi) || op.Kind == RangeTransform && all.meets(op.Lo, op.Hi) {
			flush()
		}
		out[i] = m.rangeBroadcastInner(c, op)
	}
	flush()
	return out, m.endBatch(tr, c, B, 0, 0)
}

// SizeCutoff returns the broadcast/tree dispatch threshold in expected
// pairs: Θ(P log P), where the total-work crossover sits (see the
// crossover experiment in EXPERIMENTS.md).
func (m *Map[K, V]) SizeCutoff() int {
	return m.cfg.P * logCeil(m.cfg.P)
}

// estimateTask counts the upper-part leaves inside [lo, hi] on the local
// replica, capped at cap (the dispatch decision needs no more precision).
type estimateTask[K cmp.Ordered, V any] struct {
	m      *Map[K, V]
	id     int32
	lo, hi K
	cap_   int64
}

// estimateMsg replies the (capped) upper-leaf count.
type estimateMsg struct {
	id    int32
	count int64
}

func (t *estimateTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	u, uAddr := t.m.localUpperLeafFloor(c, st, t.lo)
	var count int64
	// The floor itself may be < lo; count the upper leaves in (lo-floor,
	// hi]: advance first, then count while ≤ hi.
	for count < t.cap_ {
		if u.right.IsNil() || u.rightKey > t.hi {
			break
		}
		uAddr = u.right.Addr()
		u = st.upper.At(uAddr)
		count++
		c.Charge(1)
	}
	c.Reply(estimateMsg{id: t.id, count: count})
}

// estimateBig classifies each op as broadcast-worthy using the upper-part
// estimator: ≥ logP upper leaves in range ⇒ expected ≥ P·logP pairs.
func (m *Map[K, V]) estimateBig(c *cpu.Ctx, ops []RangeOp[K, V]) []bool {
	B := len(ops)
	threshold := int64(logCeil(m.cfg.P))
	sends := make([]pim.Send[*modState[K, V]], B)
	for i, op := range ops {
		sends[i] = pim.Send[*modState[K, V]]{
			To:   pim.ModuleID(m.r.Intn(m.cfg.P)),
			Task: &estimateTask[K, V]{m: m, id: int32(i), lo: op.Lo, hi: op.Hi, cap_: threshold + 1},
		}
	}
	big := make([]bool, B)
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		for _, r := range replies {
			v := r.V.(estimateMsg)
			big[v.id] = v.count >= threshold
		}
		sends = next
	}
	return big
}

// hull is the smallest closed interval covering the ranges added to it;
// the zero value covers nothing.
type hull[K cmp.Ordered] struct {
	lo, hi K
	ok     bool
}

func (h *hull[K]) add(lo, hi K) {
	if !h.ok {
		*h = hull[K]{lo: lo, hi: hi, ok: true}
		return
	}
	h.lo, h.hi = min(h.lo, lo), max(h.hi, hi)
}

// meets reports whether [lo, hi] overlaps the hull.
func (h hull[K]) meets(lo, hi K) bool { return h.ok && lo <= h.hi && h.lo <= hi }
