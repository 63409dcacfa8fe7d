package core

import (
	"cmp"

	"pimgo/internal/cpu"
	"pimgo/internal/listcontract"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// markMsg reports one marked node (leaf, lower-tower node, or upper-tower
// node read from a local replica) to the CPU side: its identity and its
// neighbourhood at mark time, which is exactly what the CPU-side list
// contraction of §4.4 needs.
type markMsg[K cmp.Ordered] struct {
	id       int32 // op index (set on the leaf's record, -1 on chain records)
	ptr      pim.Ptr
	level    int8
	key      K
	left     pim.Ptr
	right    pim.Ptr
	rightKey K // valid iff right != nil
}

// deleteProbeTask executes steps 1–3 of the single-op Delete (§4.4) for one
// key: shortcut to the leaf via the local hash table, mark the leaf and
// dispatch marking of its up-chain, splice the leaf out of the module-local
// leaf list, and repair upper-leaf next-leaf pointers. The global
// horizontal lists are repaired later by the CPU-side contraction.
type deleteProbeTask[K cmp.Ordered, V any] struct {
	m        *Map[K, V]
	id       int32
	key      K
	out      getMsg[V]  // found/miss reply (one per task)
	leafMark markMsg[K] // the leaf's neighbourhood record
}

func (t *deleteProbeTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	p0 := st.ht.Probes
	addr, ok := st.ht.Get(t.key)
	c.Charge(st.ht.Probes - p0)
	if !ok {
		t.out = getMsg[V]{id: t.id}
		c.Reply(&t.out)
		return
	}
	leaf := st.lower.At(addr)
	leafPtr := pim.LowerPtr(st.id, addr)
	leaf.deleted = true
	st.ht.Delete(t.key)
	c.Charge(1)

	// Splice out of the module-local leaf list (all pointers local).
	prev, next := leaf.localLeft, leaf.localRight
	st.lower.At(prev.Addr()).localRight = next
	st.lower.At(next.Addr()).localLeft = prev
	c.Charge(1)

	// Repair next-leaf pointers: every upper-leaf replica pointing at this
	// leaf now points at its local successor.
	u, _ := t.m.localUpperLeafFloor(c, st, t.key)
	for u.nextLeaf == leafPtr {
		u.nextLeaf = next
		c.Charge(1)
		if u.left.IsNil() {
			break
		}
		u = st.upper.At(u.left.Addr())
	}

	// Report the marked leaf.
	t.leafMark = markMsg[K]{
		id: t.id, ptr: leafPtr, level: 0, key: t.key,
		left: leaf.left, right: leaf.right, rightKey: leaf.rightKey,
	}
	c.ReplyWords(&t.leafMark, 4)

	// Mark the rest of the tower. Lower chain nodes live on other modules
	// (one message each, O(1) expected per op); upper chain nodes are
	// replicated, so this module reads its own replica and reports it —
	// the CPU side will broadcast the actual deletion (§4.4 step 3).
	for _, p := range leaf.upChain {
		if p.IsUpper() {
			un := st.upper.At(p.Addr())
			c.Charge(1)
			mm := st.scratch.marks.take()
			*mm = markMsg[K]{
				id: -1, ptr: p, level: un.level, key: un.key,
				left: un.left, right: un.right, rightKey: un.rightKey,
			}
			c.ReplyWords(mm, 4)
		} else {
			mt := st.scratch.markTasks.take()
			mt.ptr = p
			c.Send(p.ModuleOf(), mt)
		}
	}
	t.out = getMsg[V]{id: t.id, found: true}
	c.Reply(&t.out)
}

// markLowerTask marks one lower-part tower node and reports its
// neighbourhood.
type markLowerTask[K cmp.Ordered, V any] struct {
	ptr pim.Ptr
	out markMsg[K]
}

func (t *markLowerTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	nd := st.resolve(t.ptr)
	nd.deleted = true
	c.Charge(1)
	t.out = markMsg[K]{
		id: -1, ptr: t.ptr, level: nd.level, key: nd.key,
		left: nd.left, right: nd.right, rightKey: nd.rightKey,
	}
	c.ReplyWords(&t.out, 4)
}

// freeLowerTask releases a marked lower node's slot.
type freeLowerTask[K cmp.Ordered, V any] struct {
	addr uint32
}

func (t *freeLowerTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	c.State().lower.Free(t.addr)
	c.Charge(1)
}

// freeUpperTask releases a marked upper node's replica slot (broadcast).
type freeUpperTask[K cmp.Ordered, V any] struct {
	addr uint32
}

func (t *freeUpperTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	c.State().upper.Free(t.addr)
	c.Charge(1)
}

// Delete removes every present key, reporting per input position whether it
// was found (§4.4, Theorem 4.5). Duplicate keys collapse. Arbitrarily long
// runs of consecutive deletions are spliced with CPU-side parallel list
// contraction, so the horizontal relinking needs O(1) writes per deleted
// node regardless of run shape.
func (m *Map[K, V]) Delete(keys []K) ([]bool, BatchStats) {
	return m.DeleteInto(keys, nil)
}

// DeleteInto is Delete writing results into dst (reused when it has
// capacity) so steady-state callers allocate nothing.
func (m *Map[K, V]) DeleteInto(keys []K, dst []bool) ([]bool, BatchStats) {
	tr, c := m.beginBatch("delete", len(keys))
	B := len(keys)
	out := sliceInto(dst, B)
	if B == 0 {
		return out, m.endBatch(tr, c, 0, 0, 0)
	}
	m.prepDelete(c, keys)
	m.execDelete(c, B, out)
	return out, m.endBatch(tr, c, B, 0, 0)
}

// prepDelete is Delete's round-free CPU prefix: semisort dedup and
// probe-send construction.
func (m *Map[K, V]) prepDelete(c *cpu.Ctx, keys []K) {
	ws := m.ws
	B := len(keys)
	c.Tracker().Alloc(int64(2 * B))

	m.phase(c, trace.PhaseSemisort)
	uniq, slot := m.dedupWS(ws, c, keys)
	ws.found = grow(ws.found, len(uniq))

	// Stage 1 send construction: mark leaves and towers.
	m.phase(c, trace.PhaseExecute)
	sends := grow(ws.sends[:0], len(uniq))
	c.WorkFlat(int64(len(uniq)))
	for i, k := range uniq {
		t := ws.delTasks.take()
		t.m, t.id, t.key = m, int32(i), k
		sends[i] = pim.Send[*modState[K, V]]{
			To:   m.moduleFor(m.hashKey(k), 0),
			Task: t,
		}
	}
	ws.sends = sends
	ws.prepUniq, ws.prepSlot = uniq, slot
}

// execDelete is Delete's machine half: the marking rounds, CPU-side list
// contraction, remote splices and frees, and the found/slot scatter into
// out (length B).
func (m *Map[K, V]) execDelete(c *cpu.Ctx, B int, out []bool) {
	ws := m.ws
	slot := ws.prepSlot
	found := ws.found
	sends := ws.sends

	// Stage 1: mark leaves and towers, collect neighbourhood records.
	marks := ws.marks[:0]
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		for _, r := range replies {
			switch v := r.V.(type) {
			case *getMsg[V]:
				found[v.id] = v.found
			case *markMsg[K]:
				marks = append(marks, *v)
			}
		}
		sends = next
	}
	ws.marks = marks
	c.Tracker().Alloc(int64(4 * len(marks)))

	// Stage 2: CPU-side list contraction over local copies of the marked
	// nodes (§4.4): build the index graph of marked nodes plus their
	// boundary (unmarked) neighbours, contract, then splice remotely.
	m.phase(c, trace.PhaseContract)
	g := &ws.del
	g.reset(3 * len(marks))
	c.WorkFlat(int64(len(marks)))
	for mi := range marks {
		mk := &marks[mi]
		i := g.getIdx(mk.ptr)
		g.marked[i], g.wasMarked[i] = true, true
		g.nodeKey[i], g.keyKnown[i] = mk.key, true
		l, r := g.getIdx(mk.left), g.getIdx(mk.right)
		g.left[i], g.right[i] = l, r
		if l >= 0 {
			g.right[l] = i
			g.hadMarkedRight[l] = true
		}
		if r >= 0 {
			g.left[r] = i
			g.hadMarkedLeft[r] = true
			if !g.keyKnown[r] {
				g.nodeKey[r], g.keyKnown[r] = mk.rightKey, true
			}
		}
	}
	listcontract.SpliceWS(c, ws.par, g.left, g.right, g.marked, m.r.Uint64())

	// Stage 3: remote splices. A surviving (boundary) node needs its right
	// pointer repaired iff it originally had a marked right neighbour, and
	// its left pointer repaired iff it originally had a marked left
	// neighbour; the contracted graph supplies the new neighbours.
	m.phase(c, trace.PhaseRebuild)
	sends = m.ws.sends[:0]
	c.WorkFlat(int64(len(g.left)))
	for i := range g.left {
		if g.wasMarked[i] {
			continue
		}
		if g.hadMarkedRight[i] {
			var rp pim.Ptr
			var rk K
			if g.right[i] >= 0 {
				rp = g.nodePtr[g.right[i]]
				rk = g.nodeKey[g.right[i]]
			}
			t := ws.wrTasks.take()
			*t = writeRightTask[K, V]{target: g.nodePtr[i], right: rp, rightKey: rk}
			sends = m.appendOwner(sends, g.nodePtr[i], t, 2)
		}
		if g.hadMarkedLeft[i] {
			var lp pim.Ptr
			if g.left[i] >= 0 {
				lp = g.nodePtr[g.left[i]]
			}
			t := ws.wlTasks.take()
			*t = writeLeftTask[K, V]{target: g.nodePtr[i], left: lp}
			sends = m.appendOwner(sends, g.nodePtr[i], t, 1)
		}
	}

	// Free the marked nodes (lower: their module; upper: broadcast + CPU
	// allocator release).
	for i := range marks {
		mk := &marks[i]
		if mk.ptr.IsUpper() {
			m.freeUpper(mk.ptr.Addr())
			t := ws.fuTasks.take()
			t.addr = mk.ptr.Addr()
			sends = append(sends, m.mach.Broadcast(t, 1)...)
		} else {
			t := ws.flTasks.take()
			t.addr = mk.ptr.Addr()
			sends = append(sends, pim.Send[*modState[K, V]]{
				To: mk.ptr.ModuleOf(), Task: t,
			})
		}
	}
	ws.sends = sends
	c.WorkFlat(int64(len(sends)))
	m.drive(c, sends)

	deleted := 0
	c.WorkFlat(int64(B))
	for i := 0; i < B; i++ {
		out[i] = found[slot[i]]
	}
	for _, f := range found {
		if f {
			deleted++
		}
	}
	m.n -= deleted
	c.Tracker().Free(int64(4 * len(marks)))
	c.Tracker().Free(int64(2 * B))
}

// DeleteOne removes a single key (a batch of one).
func (m *Map[K, V]) DeleteOne(key K) (bool, BatchStats) {
	res, st := m.Delete([]K{key})
	return res[0], st
}
