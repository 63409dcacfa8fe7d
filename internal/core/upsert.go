package core

import (
	"cmp"
	"fmt"

	"pimgo/internal/cpu"
	"pimgo/internal/parutil"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// --- module-side tasks for batched Upsert (§4.3) ---

// createLowerMsg reports the address a createLowerTask allocated.
type createLowerMsg struct {
	id    int32
	level int8
	addr  uint32
}

// createLowerTask allocates a lower-part node for (key, level) in the
// executing module (step 3 of the single-op Insert). At level 0 it also
// inserts the leaf into the module's hash table and local leaf list and
// repairs upper-leaf next-leaf pointers — all module-local work.
type createLowerTask[K cmp.Ordered, V any] struct {
	m     *Map[K, V]
	id    int32
	key   K
	val   V
	level int8
}

func (t *createLowerTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	addr, nd := st.lower.Alloc()
	nd.key = t.key
	nd.level = t.level
	c.Charge(1)
	if t.level == 0 {
		nd.val = t.val
		p0 := st.ht.Probes
		st.ht.Put(t.key, addr)
		c.Charge(st.ht.Probes - p0)
		t.m.spliceIntoLocalList(c, st, addr)
	}
	c.Reply(createLowerMsg{id: t.id, level: t.level, addr: addr})
}

// spliceIntoLocalList inserts leaf addr into the module-local leaf list at
// its sorted position and repairs next-leaf pointers of the upper-leaf
// replicas that should now point at it. Pure local work: O(log n) upper
// search plus an O(log P)-whp local-list walk (§3.2's dashed pointers).
func (m *Map[K, V]) spliceIntoLocalList(c *pim.Ctx[*modState[K, V]], st *modState[K, V], addr uint32) {
	leaf := st.lower.At(addr)
	key := leaf.key
	id := st.id

	// Rightmost upper-part leaf with key ≤ key, in the local replica.
	u, _ := m.localUpperLeafFloor(c, st, key)

	// Entry into the local list, then walk to the first local leaf ≥ key.
	cur := u.nextLeaf
	cn := st.lower.At(cur.Addr())
	for !cn.pos && cn.key < key {
		cur = cn.localRight
		cn = st.lower.At(cur.Addr())
		c.Charge(1)
	}
	// Insert between cur.localLeft and cur.
	leafPtr := pim.LowerPtr(id, addr)
	prev := cn.localLeft
	pn := st.lower.At(prev.Addr())
	pn.localRight = leafPtr
	cn.localLeft = leafPtr
	leaf.localLeft = prev
	leaf.localRight = cur
	c.Charge(1)

	// Every upper leaf whose next-leaf should now be this leaf: walk left
	// from u while the replica's next-leaf is the leaf we displaced (those
	// upper leaves had no local leaf between their key and the new key).
	for u.nextLeaf == cur {
		u.nextLeaf = leafPtr
		c.Charge(1)
		if u.left.IsNil() {
			break
		}
		u = st.upper.At(u.left.Addr())
	}
}

// localUpperLeafFloor descends the local upper replica to the rightmost
// upper-part leaf with key ≤ k (possibly the -∞ sentinel).
func (m *Map[K, V]) localUpperLeafFloor(c *pim.Ctx[*modState[K, V]], st *modState[K, V], k K) (*node[K, V], uint32) {
	addr := m.rootAddr
	u := st.upper.At(addr)
	for {
		c.Charge(1)
		for !u.right.IsNil() && u.rightKey <= k {
			addr = u.right.Addr()
			u = st.upper.At(addr)
			c.Charge(1)
		}
		if int(u.level) == m.cfg.HLow {
			return u, addr
		}
		addr = u.down.Addr()
		u = st.upper.At(addr)
	}
}

// createUpperTask allocates a replica of a new upper-part node at a fixed
// address (broadcast to every module). At the upper-leaf level it also
// computes this replica's next-leaf pointer locally.
type createUpperTask[K cmp.Ordered, V any] struct {
	m     *Map[K, V]
	key   K
	level int8
	addr  uint32
}

func (t *createUpperTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	nd := st.upper.AllocAt(t.addr)
	nd.key = t.key
	nd.level = t.level
	c.Charge(1)
	if int(t.level) == t.m.cfg.HLow {
		// next-leaf: first local leaf ≥ key, found via the old upper part.
		u, _ := t.m.localUpperLeafFloor(c, st, t.key)
		cur := u.nextLeaf
		cn := st.lower.At(cur.Addr())
		for !cn.pos && cn.key < t.key {
			cur = cn.localRight
			cn = st.lower.At(cur.Addr())
			c.Charge(1)
		}
		nd.nextLeaf = cur
	}
}

// setTowerTask writes the vertical pointers (up, down) of one new node and,
// at the leaf, the up-chain used by Delete. Sent to the node's module, or
// broadcast for upper nodes.
type setTowerTask[K cmp.Ordered, V any] struct {
	target   pim.Ptr
	up, down pim.Ptr
	setChain bool
	chain    []pim.Ptr
}

func (t *setTowerTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	nd := st.resolve(t.target)
	nd.up, nd.down = t.up, t.down
	if t.setChain {
		nd.upChain = t.chain
	}
	c.Charge(1)
}

// writeRightTask performs the RemoteWrite of a right pointer (plus the
// cached neighbour key) in Algorithm 1.
type writeRightTask[K cmp.Ordered, V any] struct {
	target   pim.Ptr
	right    pim.Ptr
	rightKey K
}

func (t *writeRightTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	nd := st.resolve(t.target)
	nd.right = t.right
	nd.rightKey = t.rightKey
	c.Charge(1)
}

// writeLeftTask performs the RemoteWrite of a left pointer in Algorithm 1.
type writeLeftTask[K cmp.Ordered, V any] struct {
	target pim.Ptr
	left   pim.Ptr
}

func (t *writeLeftTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	st.resolve(t.target).left = t.left
	c.Charge(1)
}

// upsertProbeTask updates the value when the key exists, otherwise reports
// a miss (the Update-first step of §4.3).
type upsertProbeTask[K cmp.Ordered, V any] struct {
	id  int32
	key K
	val V
	out getMsg[V]
}

func (t *upsertProbeTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	p0 := st.ht.Probes
	addr, ok := st.ht.Get(t.key)
	c.Charge(st.ht.Probes - p0)
	if ok {
		st.lower.At(addr).val = t.val
		c.Charge(1)
	}
	t.out = getMsg[V]{id: t.id, found: ok}
	c.Reply(&t.out)
}

// --- the batched Upsert ---

// Upsert inserts every missing key and updates the value of every present
// key (§4.3, Theorem 4.4). Duplicate keys in the batch collapse to their
// last occurrence. It returns, per input position, whether the key was
// newly inserted.
func (m *Map[K, V]) Upsert(keys []K, vals []V) ([]bool, BatchStats) {
	return m.UpsertInto(keys, vals, nil)
}

// UpsertInto is Upsert writing results into dst (reused when it has
// capacity). The all-present (pure update) steady state allocates nothing.
func (m *Map[K, V]) UpsertInto(keys []K, vals []V, dst []bool) ([]bool, BatchStats) {
	if len(keys) != len(vals) {
		panic(batchAbort{fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)", ErrBadBatch, len(keys), len(vals))})
	}
	tr, c := m.beginBatch("upsert", len(keys))
	B := len(keys)
	inserted := sliceInto(dst, B)
	if B == 0 {
		return inserted, m.endBatch(tr, c, 0, 0, 0)
	}
	m.prepUpsert(c, keys, vals)
	phases, maxAcc := m.execUpsert(c, B)
	// Map per-unique found flags back to input positions.
	slot, found := m.ws.prepSlot, m.ws.found
	c.WorkFlat(int64(B))
	for i := 0; i < B; i++ {
		inserted[i] = !found[slot[i]]
	}
	return inserted, m.endBatch(tr, c, B, int(phases), maxAcc)
}

// prepUpsert is Upsert's round-free CPU prefix: the semisort dedup (last
// value wins) and the stage-0 probe-send construction. Tower heights (the
// Map's RNG) are drawn on the exec side, after the probe rounds.
func (m *Map[K, V]) prepUpsert(c *cpu.Ctx, keys []K, vals []V) {
	ws := m.ws
	B := len(keys)
	c.Tracker().Alloc(int64(3 * B))

	// Deduplicate (last value wins).
	m.phase(c, trace.PhaseSemisort)
	uniq, slot := m.dedupWS(ws, c, keys)
	ws.chosen = grow(ws.chosen, len(uniq))
	chosen := ws.chosen
	c.WorkFlat(int64(B))
	for i := range keys {
		chosen[slot[i]] = vals[i]
	}

	// Stage 0: try Update; collect misses.
	m.phase(c, trace.PhaseExecute)
	ws.found = grow(ws.found, len(uniq))
	sends := grow(ws.sends[:0], len(uniq))
	c.WorkFlat(int64(len(uniq)))
	for i, k := range uniq {
		t := ws.probeTasks.take()
		t.id, t.key, t.val = int32(i), k, chosen[i]
		sends[i] = pim.Send[*modState[K, V]]{
			To:   m.moduleFor(m.hashKey(k), 0),
			Task: t,
		}
	}
	ws.sends = sends
	ws.prepUniq, ws.prepSlot = uniq, slot
}

// execUpsert is Upsert's machine half: drive the probe rounds, then build the
// missing towers (stages 1a–3). Returns (pivot phases, max node access) for
// the final stats.
func (m *Map[K, V]) execUpsert(c *cpu.Ctx, B int) (int64, int64) {
	ws := m.ws
	uniq := ws.prepUniq
	chosen := ws.chosen
	m.drainInto(c, ws.sends, ws.onFound)

	missIdx := parutil.PackWS(c, ws.par, ws.seqIntsWS(len(uniq)), ws.keepMiss)
	nm := len(missIdx)
	if nm == 0 {
		c.Tracker().Free(int64(3 * B))
		return 0, 0
	}
	missKeys := make([]K, nm)
	missVals := make([]V, nm)
	heights := make([]int8, nm)
	maxH := 0
	c.WorkFlat(int64(nm))
	for j, ui := range missIdx {
		missKeys[j] = uniq[ui]
		missVals[j] = chosen[ui]
		h := m.r.GeometricHeight(m.cfg.MaxLevel - 1)
		heights[j] = int8(h)
		if h > maxH {
			maxH = h
		}
	}

	// Stage 1a: create lower-part nodes (leaves splice into local lists).
	m.phase(c, trace.PhaseRebuild)
	towers := make([][]pim.Ptr, nm) // towers[j][l] = node of missKeys[j] at level l
	for j := range towers {
		towers[j] = make([]pim.Ptr, heights[j])
	}
	sends := ws.sends[:0]
	for j, k := range missKeys {
		kh := m.hashKey(k)
		hl := min(int(heights[j]), m.cfg.HLow)
		for l := 0; l < hl; l++ {
			mod := m.moduleFor(kh, l)
			towers[j][l] = pim.LowerPtr(mod, 0) // addr filled from reply
			sends = append(sends, pim.Send[*modState[K, V]]{
				To:   mod,
				Task: &createLowerTask[K, V]{m: m, id: int32(j), key: k, val: missVals[j], level: int8(l)},
			})
		}
	}
	c.WorkFlat(int64(len(sends)))
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		for _, r := range replies {
			v := r.V.(createLowerMsg)
			towers[v.id][v.level] = pim.LowerPtr(r.From, v.addr)
		}
		sends = next
	}

	// Stage 1b: create upper-part nodes (replicated broadcast allocations).
	sends = sends[:0]
	for j, k := range missKeys {
		for l := m.cfg.HLow; l < int(heights[j]); l++ {
			addr := m.allocUpper()
			towers[j][l] = pim.UpperPtr(addr)
			sends = append(sends, m.mach.Broadcast(
				&createUpperTask[K, V]{m: m, key: k, level: int8(l), addr: addr}, 1)...)
		}
	}
	c.WorkFlat(int64(len(sends)))
	m.drive(c, sends)

	// Stage 1c: vertical pointers and leaf up-chains.
	sends = sends[:0]
	for j := range missKeys {
		tw := towers[j]
		for l := 0; l < len(tw); l++ {
			var up, down pim.Ptr
			if l+1 < len(tw) {
				up = tw[l+1]
			}
			if l > 0 {
				down = tw[l-1]
			}
			t := &setTowerTask[K, V]{target: tw[l], up: up, down: down}
			if l == 0 {
				t.setChain = true
				t.chain = append([]pim.Ptr(nil), tw[1:]...)
			}
			sends = m.appendOwner(sends, tw[l], t, 1)
		}
	}
	c.WorkFlat(int64(len(sends)))
	m.drive(c, sends)

	// Stage 2: batched strict-predecessor search recording (pred, succ) at
	// every level of each new tower (§4.3 step 6 batched).
	_, phases, maxAcc := m.searchCore(c, missKeys, modeInsert, heights, nil)

	// Stage 3: Algorithm 1 — construct the horizontal pointers.
	m.phase(c, trace.PhaseRebuild)
	sends = sends[:0]
	missOrder := seqInts(nm)
	parutil.SortWS(c, ws.par, missOrder, func(a, b int) bool { return missKeys[a] < missKeys[b] })
	type entry struct {
		cur  pim.Ptr
		key  K
		pred pim.Ptr
		succ pim.Ptr
		sKey K
	}
	for l := 0; l < maxH; l++ {
		// A[l]: the new nodes at level l, ascending by key.
		var A []entry
		c.WorkFlat(int64(nm))
		for _, j := range missOrder {
			if int(heights[j]) <= l {
				continue
			}
			var pm predMsg[K]
			ok := false
			for _, r := range ws.predsOfPos(j) {
				if int(r.level) == l {
					pm, ok = r, true
					break
				}
			}
			if !ok {
				panic(fmt.Sprintf("core: missing predecessor record for level %d", l))
			}
			A = append(A, entry{cur: towers[j][l], key: missKeys[j], pred: pm.pred, succ: pm.succ, sKey: pm.succKey})
		}
		// Algorithm 1, lines 1–11.
		c.WorkFlat(int64(len(A)))
		for j := range A {
			e := A[j]
			if j == len(A)-1 || e.succ != A[j+1].succ {
				// Right end of a segment.
				sends = m.appendOwner(sends, e.cur, &writeRightTask[K, V]{target: e.cur, right: e.succ, rightKey: e.sKey}, 2)
				if !e.succ.IsNil() {
					sends = m.appendOwner(sends, e.succ, &writeLeftTask[K, V]{target: e.succ, left: e.cur}, 1)
				}
			} else {
				sends = m.appendOwner(sends, e.cur, &writeRightTask[K, V]{target: e.cur, right: A[j+1].cur, rightKey: A[j+1].key}, 2)
				sends = m.appendOwner(sends, A[j+1].cur, &writeLeftTask[K, V]{target: A[j+1].cur, left: e.cur}, 1)
			}
			if j == 0 || e.pred != A[j-1].pred {
				// Left end of a segment.
				sends = m.appendOwner(sends, e.pred, &writeRightTask[K, V]{target: e.pred, right: e.cur, rightKey: e.key}, 2)
				sends = m.appendOwner(sends, e.cur, &writeLeftTask[K, V]{target: e.cur, left: e.pred}, 1)
			}
		}
	}
	m.drive(c, sends)

	m.n += nm
	c.Tracker().Free(int64(3 * B))
	return int64(phases), maxAcc
}

// UpsertOne inserts or updates a single key (a batch of one).
func (m *Map[K, V]) UpsertOne(key K, val V) (bool, BatchStats) {
	res, st := m.Upsert([]K{key}, []V{val})
	return res[0], st
}

// appendOwner appends the sends addressing the module(s) owning ptr: a
// single send for a lower pointer, a broadcast for a replicated upper
// pointer. Broadcast returns machine-owned scratch valid until the next
// Broadcast; appending copies it out immediately, which is exactly the
// Broadcast scratch contract.
func (m *Map[K, V]) appendOwner(sends []pim.Send[*modState[K, V]], ptr pim.Ptr, t pim.Task[*modState[K, V]], words int64) []pim.Send[*modState[K, V]] {
	if ptr.IsUpper() {
		return append(sends, m.mach.Broadcast(t, words)...)
	}
	return append(sends, pim.Send[*modState[K, V]]{To: ptr.ModuleOf(), Task: t, Words: words})
}

// drive runs rounds until quiet, discarding replies (pointer-write rounds).
func (m *Map[K, V]) drive(c *cpu.Ctx, sends []pim.Send[*modState[K, V]]) {
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		sends = next
	}
}

// seqInts returns [0, 1, ..., n-1].
func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
