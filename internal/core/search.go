package core

import (
	"cmp"
	"fmt"

	"pimgo/internal/cpu"
	"pimgo/internal/parutil"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// searchMode selects the descent rule of a search.
type searchMode int8

const (
	// modeSuccessor descends keeping the current key strictly below the
	// target; the result is the first key ≥ target (Successor of §4.2).
	modeSuccessor searchMode = iota
	// modePredecessor descends keeping the current key ≤ target; the result
	// is the last key ≤ target (Predecessor of §4.2).
	modePredecessor
	// modeInsert is the strict-predecessor search of §4.3: like
	// modeSuccessor, but it also records (pred, succ) at every level below
	// the op's tower height for Algorithm 1.
	modeInsert
)

// pathMsg streams one lower-part search-path node to the CPU side
// (stage 1 of §4.2: "PIM modules send lower-part nodes on the search path
// ... back to the shared memory").
type pathMsg struct {
	id    int32
	level int8
	ptr   pim.Ptr
}

// resultMsg is a search's final answer.
type resultMsg[K cmp.Ordered, V any] struct {
	id    int32
	found bool
	key   K
	val   V
	ptr   pim.Ptr
}

// predMsg records the strict predecessor and its old successor at one level
// (consumed by Algorithm 1 during batched Upsert).
type predMsg[K cmp.Ordered] struct {
	id      int32
	level   int8
	pred    pim.Ptr
	succ    pim.Ptr // pred.right at search time (nil at list end)
	succKey K       // valid iff succ != nil
}

// searchTask is one in-flight search operation. cur == nil starts at the
// root of the executing module's local upper replica; otherwise the task
// resumes at the lower-part node cur (which lives on the executing module).
type searchTask[K cmp.Ordered, V any] struct {
	m            *Map[K, V]
	id           int32
	key          K
	mode         searchMode
	recordPath   bool
	recordLevels int8 // modeInsert: record preds at levels < recordLevels
	cur          pim.Ptr
	level        int8
}

func (t *searchTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	var u *node[K, V]
	var uptr pim.Ptr
	var lvl int8
	if t.cur.IsNil() {
		uptr = pim.UpperPtr(t.m.rootAddr)
		u = st.upper.At(t.m.rootAddr)
		lvl = int8(t.m.cfg.MaxLevel - 1)
	} else {
		uptr = t.cur
		u = st.resolve(t.cur)
		lvl = t.level
	}
	for {
		// Visit u.
		c.Charge(1)
		if !uptr.IsUpper() {
			st.track(uptr.Addr())
			if t.recordPath {
				pm := st.scratch.paths.take()
				*pm = pathMsg{id: t.id, level: lvl, ptr: uptr}
				c.Reply(pm)
			}
		}
		// Move right while the neighbour still precedes the target.
		if !u.right.IsNil() && t.goesRight(u.rightKey) {
			next := u.right
			if st.localTo(next) {
				uptr, u = next, st.resolve(next)
				continue
			}
			nt := st.scratch.searchTasks.take()
			*nt = *t
			nt.cur, nt.level = next, lvl
			c.Send(next.ModuleOf(), nt)
			return
		}
		// Descending (or finishing) at this level.
		if t.mode == modeInsert && lvl < t.recordLevels {
			pr := st.scratch.preds.take()
			*pr = predMsg[K]{
				id: t.id, level: lvl,
				pred: uptr, succ: u.right, succKey: u.rightKey,
			}
			c.ReplyWords(pr, 3)
		}
		if lvl == 0 {
			t.finish(c, st, u, uptr)
			return
		}
		d := u.down
		if st.localTo(d) {
			uptr, u = d, st.resolve(d)
			lvl--
			continue
		}
		nt := st.scratch.searchTasks.take()
		*nt = *t
		nt.cur, nt.level = d, lvl-1
		c.Send(d.ModuleOf(), nt)
		return
	}
}

// goesRight reports whether a neighbour with key rk still precedes the
// search target under the task's mode.
func (t *searchTask[K, V]) goesRight(rk K) bool {
	if t.mode == modePredecessor {
		return rk <= t.key
	}
	return rk < t.key
}

// finish emits the search result from the level-0 landing node u.
func (t *searchTask[K, V]) finish(c *pim.Ctx[*modState[K, V]], st *modState[K, V], u *node[K, V], uptr pim.Ptr) {
	switch t.mode {
	case modePredecessor:
		rm := st.scratch.results.take()
		if u.neg {
			*rm = resultMsg[K, V]{id: t.id}
		} else {
			*rm = resultMsg[K, V]{id: t.id, found: true, key: u.key, val: u.val, ptr: uptr}
		}
		c.ReplyWords(rm, 2)
	default: // successor / insert-pred: result is u.right
		r := u.right
		if r.IsNil() {
			rm := st.scratch.results.take()
			*rm = resultMsg[K, V]{id: t.id}
			c.ReplyWords(rm, 2)
			return
		}
		if st.localTo(r) {
			rn := st.resolve(r)
			c.Charge(1)
			rm := st.scratch.results.take()
			*rm = resultMsg[K, V]{id: t.id, found: true, key: rn.key, val: rn.val, ptr: r}
			c.ReplyWords(rm, 2)
			return
		}
		// The result leaf is remote: hop there so its value rides back.
		ft := st.scratch.fetchTasks.take()
		ft.id, ft.leaf = t.id, r
		c.Send(r.ModuleOf(), ft)
	}
}

// fetchLeafTask reads a leaf and replies with its (key, value).
type fetchLeafTask[K cmp.Ordered, V any] struct {
	id   int32
	leaf pim.Ptr
	out  resultMsg[K, V]
}

func (t *fetchLeafTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	c.Charge(1)
	n := st.resolve(t.leaf)
	t.out = resultMsg[K, V]{id: t.id, found: true, key: n.key, val: n.val, ptr: t.leaf}
	c.ReplyWords(&t.out, 2)
}

// SearchResult is the outcome of one Predecessor or Successor operation.
type SearchResult[K cmp.Ordered, V any] struct {
	// Found is false when no qualifying key exists.
	Found bool
	Key   K
	Value V
}

// pathEntry is one recorded lower-part node of a pivot search path.
type pathEntry struct {
	ptr   pim.Ptr
	level int8
}

// runWave drives rounds until the machine is quiet, dispatching replies
// into the batch workspace: results land in ws.results (sorted order), path
// and pred records append to the flat logs (regrouped by id afterwards).
// CPU cost: processing each reply is a flat parallel step.
func (m *Map[K, V]) runWave(c *cpu.Ctx, sends []pim.Send[*modState[K, V]]) {
	ws := m.ws
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		for _, r := range replies {
			switch v := r.V.(type) {
			case *resultMsg[K, V]:
				ws.results[v.id] = *v
				ws.done[v.id] = true
			case *pathMsg:
				ws.pathLog = append(ws.pathLog, pathRec{id: v.id, e: pathEntry{ptr: v.ptr, level: v.level}})
			case *predMsg[K]:
				ws.predLog = append(ws.predLog, *v)
			default:
				panic("core: unexpected reply in search wave")
			}
		}
		sends = next
	}
}

// startSend builds the initial send of a search task: at a hinted lower
// node if hint is non-nil, else at the root replica of a random module.
func (m *Map[K, V]) startSend(t *searchTask[K, V], hint pim.Ptr, hintLevel int8) pim.Send[*modState[K, V]] {
	if !hint.IsNil() {
		t.cur, t.level = hint, hintLevel
		return pim.Send[*modState[K, V]]{To: hint.ModuleOf(), Task: t}
	}
	return pim.Send[*modState[K, V]]{To: pim.ModuleID(m.r.Intn(m.cfg.P)), Task: t}
}

// hint computes the stage-2/phase start hint for an operation lying between
// two executed pivots (§4.2): if the pivots share their result leaf the
// result is taken directly; otherwise the search starts at the lowest
// common lower-part node of the two recorded paths, or at the root if the
// paths share no lower-part node.
type hint[K cmp.Ordered, V any] struct {
	direct   bool // result resolved without any search
	result   resultMsg[K, V]
	start    pim.Ptr // nil → root
	startLvl int8
}

func computeHint[K cmp.Ordered, V any](mode searchMode, id int32,
	lRes, rRes resultMsg[K, V], lPath, rPath []pathEntry) hint[K, V] {

	// Monotonicity short-circuits. Successor is monotone nondecreasing:
	// succ(a) == succ(b) ⇒ succ(x) is the same leaf for all x in [a,b];
	// and succ(a) == none ⇒ succ(x ≥ a) == none. Symmetric for predecessor.
	switch mode {
	case modePredecessor:
		if !rRes.found {
			return hint[K, V]{direct: true, result: resultMsg[K, V]{id: id}}
		}
	default:
		if !lRes.found {
			return hint[K, V]{direct: true, result: resultMsg[K, V]{id: id}}
		}
	}
	if lRes.found && rRes.found && lRes.ptr == rRes.ptr {
		r := lRes
		r.id = id
		return hint[K, V]{direct: true, result: r}
	}
	// Lowest common lower-part node = last entry of the common path prefix.
	n := len(lPath)
	if len(rPath) < n {
		n = len(rPath)
	}
	last := -1
	for i := 0; i < n; i++ {
		if lPath[i].ptr != rPath[i].ptr {
			break
		}
		last = i
	}
	if last < 0 {
		return hint[K, V]{}
	}
	return hint[K, V]{start: lPath[last].ptr, startLvl: lPath[last].level}
}

// Successor answers, for every key in keys, the smallest key in the map ≥
// that key, with its value. Results are in input order. The batch is
// executed with the PIM-balanced pivot algorithm of §4.2 (Theorem 4.3)
// unless Config.NaiveBatch reproduces the imbalanced naive execution.
func (m *Map[K, V]) Successor(keys []K) ([]SearchResult[K, V], BatchStats) {
	return m.batchSearch(keys, modeSuccessor, nil)
}

// SuccessorInto is Successor writing results into dst (reused when it has
// capacity) so steady-state callers allocate nothing.
func (m *Map[K, V]) SuccessorInto(keys []K, dst []SearchResult[K, V]) ([]SearchResult[K, V], BatchStats) {
	return m.batchSearch(keys, modeSuccessor, dst)
}

// Predecessor answers, for every key in keys, the largest key in the map ≤
// that key, with its value. Results are in input order.
func (m *Map[K, V]) Predecessor(keys []K) ([]SearchResult[K, V], BatchStats) {
	return m.batchSearch(keys, modePredecessor, nil)
}

// PredecessorInto is Predecessor writing results into dst (reused when it
// has capacity).
func (m *Map[K, V]) PredecessorInto(keys []K, dst []SearchResult[K, V]) ([]SearchResult[K, V], BatchStats) {
	return m.batchSearch(keys, modePredecessor, dst)
}

// SuccessorOne runs a single Successor query (a batch of one).
func (m *Map[K, V]) SuccessorOne(key K) (SearchResult[K, V], BatchStats) {
	res, st := m.Successor([]K{key})
	return res[0], st
}

// PredecessorOne runs a single Predecessor query (a batch of one).
func (m *Map[K, V]) PredecessorOne(key K) (SearchResult[K, V], BatchStats) {
	res, st := m.Predecessor([]K{key})
	return res[0], st
}

func (m *Map[K, V]) batchSearch(keys []K, mode searchMode, dst []SearchResult[K, V]) ([]SearchResult[K, V], BatchStats) {
	op := "successor"
	if mode == modePredecessor {
		op = "predecessor"
	}
	tr, c := m.beginBatch(op, len(keys))
	res, phases, maxAcc := m.searchCore(c, keys, mode, nil, nil)
	out := sliceInto(dst, len(keys))
	c.WorkFlat(int64(len(keys)))
	for i, r := range res {
		out[i] = SearchResult[K, V]{Found: r.found, Key: r.key, Value: r.val}
	}
	return out, m.endBatch(tr, c, len(keys), phases, maxAcc)
}

// expandHint is the start hint the tree-structured range operations (§5.2)
// reuse from the pivot machinery: a lower-part node known to precede the
// op's key, or nil for a root start.
type expandHint struct {
	start pim.Ptr
	level int8
}

// sortItemLess orders batch items by key, breaking ties by input position.
func sortItemLess[K cmp.Ordered](a, b sortItem[K]) bool {
	if a.k != b.k {
		return a.k < b.k
	}
	return a.pos < b.pos
}

// newTask builds the search task for sorted-id j from the Map's task arena.
func (sr *searchRun[K, V]) newTask(j int, recordPath, isPivot bool) *searchTask[K, V] {
	m := sr.m
	t := m.ws.srchTasks.take()
	*t = searchTask[K, V]{
		m: m, id: int32(j), key: m.ws.sorted[j].k, mode: sr.mode,
		recordPath: recordPath,
	}
	if sr.withPreds {
		if isPivot {
			t.recordLevels = int8(m.cfg.MaxLevel)
		} else {
			t.recordLevels = sr.insertHeights[m.ws.sorted[j].pos]
		}
	}
	return t
}

// borrowPreds copies the left pivot's records above the hint level to op j
// (capped at maxLevel; pivots borrow everything). In insert mode, pivots
// record predecessor data at EVERY level they traverse (not just their own
// tower height): hinted operations start below the upper levels and must
// borrow the records above their hint from the enclosing left pivot — valid
// because search paths coincide above the lowest common node, so
// pred_l(x) = pred_l(pivot) there. Borrowed records append to the flat log
// (before the wave's own replies, exactly where the map-based accumulator
// used to append them); the grouped view of jl is stable because jl's phase
// already completed.
func (sr *searchRun[K, V]) borrowPreds(j, jl int, aboveLvl int8, maxLevel int8) {
	if !sr.withPreds {
		return
	}
	ws := sr.m.ws
	for _, rec := range ws.predsOf(jl) {
		if rec.level > aboveLvl && rec.level < maxLevel {
			rec.id = int32(j)
			ws.predLog = append(ws.predLog, rec)
			sr.c.Work(1)
		}
	}
}

// runPhase executes one stage-1 pivot phase: hint each pivot in idxs from
// its nearest executed neighbours, launch the wave, then regroup the flat
// path/pred logs so the next phase sees the updated per-id views.
func (sr *searchRun[K, V]) runPhase(idxs []int, record bool) {
	m, c, ws := sr.m, sr.c, sr.m.ws
	sr.phases++
	m.resetAccessPhase()
	pinfo := PhaseInfo{}
	sends := ws.sends[:0]
	for _, pi := range idxs {
		j := ws.pivots[pi]
		// Hint from the nearest executed pivots on each side.
		l, r := pi-1, pi+1
		for l >= 0 && !ws.execd[l] {
			l--
		}
		for r < sr.np && !ws.execd[r] {
			r++
		}
		var h hint[K, V]
		jl := -1
		if l >= 0 && r < sr.np {
			jl = ws.pivots[l]
			jr := ws.pivots[r]
			h = computeHint(sr.mode, int32(j), ws.results[jl], ws.results[jr], ws.pathsOf(jl), ws.pathsOf(jr))
		}
		if sr.hintsOut != nil {
			sr.hintsOut[ws.sorted[j].pos] = expandHint{start: h.start, level: h.startLvl}
		}
		c.Work(int64(m.cfg.HLow + 2)) // LCA scan over two O(HLow) paths
		if m.cfg.TracePhases {
			pinfo.Pivots = append(pinfo.Pivots, j)
			switch {
			case h.direct:
				pinfo.Hints = append(pinfo.Hints, "direct")
			case h.start.IsNil():
				pinfo.Hints = append(pinfo.Hints, "root")
			default:
				pinfo.Hints = append(pinfo.Hints, fmt.Sprintf("lca@L%d", h.startLvl))
			}
		}
		if h.direct {
			ws.results[j] = h.result
			ws.done[j] = true
			if sr.withPreds {
				// Direct results skip the search, but inserts always
				// need the per-level records — fall through to search.
				h.direct = false
			} else {
				continue
			}
		}
		if sr.withPreds && !h.start.IsNil() && jl >= 0 {
			sr.borrowPreds(j, jl, h.startLvl, int8(m.cfg.MaxLevel))
		}
		sends = append(sends, m.startSend(sr.newTask(j, record, true), h.start, h.startLvl))
	}
	ws.sends = sends
	if m.cfg.TracePhases {
		m.lastPhases = append(m.lastPhases, pinfo)
	}
	m.runWave(c, sends)
	ws.groupPaths(sr.B)
	if sr.withPreds {
		ws.groupPreds(sr.B)
	}
	for _, pi := range idxs {
		ws.execd[pi] = true
	}
	if a := m.maxAccessThisPhase(); a > sr.maxAcc {
		sr.maxAcc = a
	}
}

// searchCore runs the full §4.2 batch-search algorithm and returns the raw
// results in input order (a workspace-owned slice, valid until the next
// batch). When insertHeights is non-nil (batched Upsert), the mode is
// modeInsert and the per-level predecessor records are afterwards available
// through ws.predsOfPos, keyed by input position. When hintsOut is non-nil
// (len B), it receives each op's start hint in input order (§5.2
// expansions).
func (m *Map[K, V]) searchCore(c *cpu.Ctx, keys []K, mode searchMode,
	insertHeights []int8, hintsOut []expandHint) (results []resultMsg[K, V], phases int, maxAcc int64) {

	m.prepSearch(c, keys)
	return m.execSearch(c, len(keys), mode, insertHeights, hintsOut)
}

// prepSearch is the round-free CPU prefix of a batch search: the key sort
// of §4.2 ("The keys in the batch are first sorted on the CPU side").
// sorted[j].pos = input position of the j-th smallest key.
func (m *Map[K, V]) prepSearch(c *cpu.Ctx, keys []K) {
	ws := m.ws
	B := len(keys)
	ws.outRes = grow(ws.outRes, B)
	if B == 0 {
		return
	}
	c.Tracker().Alloc(int64(B))

	m.phase(c, trace.PhaseSort)
	ws.sorted = grow(ws.sorted, B)
	for i, k := range keys {
		ws.sorted[i] = sortItem[K]{k: k, pos: int32(i)}
	}
	c.WorkFlat(int64(B))
	parutil.SortWS(c, ws.par, ws.sorted, ws.sortLess)
	m.phase(c, trace.PhaseSearch)
}

// execSearch is the machine half of a batch search: the pivot phases, waves,
// and the unsort back to input order, over the ws.sorted that prepSearch
// filled. Returns the raw results in input order (workspace-owned, valid
// until the next batch).
func (m *Map[K, V]) execSearch(c *cpu.Ctx, B int, mode searchMode,
	insertHeights []int8, hintsOut []expandHint) (results []resultMsg[K, V], phases int, maxAcc int64) {

	ws := m.ws
	if B == 0 {
		return ws.outRes, 0, 0
	}

	ws.results = grow(ws.results, B)
	ws.done = grow(ws.done, B)
	clear(ws.done)
	ws.idOf = grow(ws.idOf, B)
	// The path and predecessor logs hold this search's records only: a
	// batch may run more than one search (RangeAuto's tree batches).
	ws.pathLog, ws.predLog = ws.pathLog[:0], ws.predLog[:0]
	sr := &ws.search
	*sr = searchRun[K, V]{
		m: m, c: c, mode: mode,
		insertHeights: insertHeights, hintsOut: hintsOut,
		withPreds: mode == modeInsert, B: B,
	}

	if m.cfg.NaiveBatch {
		// §4.2's PIM-imbalanced naive execution: all ops from the root.
		sends := ws.sends[:0]
		for j := 0; j < B; j++ {
			sends = append(sends, m.startSend(sr.newTask(j, sr.withPreds, false), pim.NilPtr, 0))
		}
		ws.sends = sends
		m.resetAccessPhase()
		m.runWave(c, sends)
		if sr.withPreds {
			ws.groupPreds(B)
		}
		if a := m.maxAccessThisPhase(); a > maxAcc {
			maxAcc = a
		}
		m.unsortResults(c)
		c.Tracker().Free(int64(B))
		return ws.outRes, 1, maxAcc
	}

	// Stage 1: pivots. Every PivotSpacing-th op plus both extremes.
	spacing := m.cfg.PivotSpacing
	pivots := ws.pivots[:0]
	for j := 0; j < B; j += spacing {
		pivots = append(pivots, j)
	}
	if pivots[len(pivots)-1] != B-1 {
		pivots = append(pivots, B-1)
	}
	ws.pivots = pivots
	c.Tracker().Alloc(int64(len(pivots) * (2*m.cfg.HLow + 2))) // recorded paths live in shared memory
	np := len(pivots)
	sr.np = np
	ws.execd = grow(ws.execd, np)
	clear(ws.execd)

	m.lastPhases = m.lastPhases[:0]

	// Phase 0: the two extreme pivots.
	if np == 1 {
		ws.medians = append(ws.medians[:0], 0)
	} else {
		ws.medians = append(ws.medians[:0], 0, np-1)
	}
	sr.runPhase(ws.medians, true)
	// Subsequent phases: the median pivot of every unexecuted segment.
	for {
		medians := ws.medians[:0]
		i := 0
		for i < np {
			if ws.execd[i] {
				i++
				continue
			}
			lo := i
			for i < np && !ws.execd[i] {
				i++
			}
			medians = append(medians, (lo+i-1)/2)
		}
		ws.medians = medians
		if len(medians) == 0 {
			break
		}
		sr.runPhase(medians, true)
	}

	// Stage 2: every non-pivot op, hinted by its enclosing pivots.
	sr.phases++
	m.resetAccessPhase()
	sends := ws.sends[:0]
	pi := 0
	for j := 0; j < B; j++ {
		for pi+1 < np && pivots[pi+1] <= j {
			pi++
		}
		if pivots[pi] == j {
			continue // pivots were executed (and recorded) in stage 1
		}
		jl := pivots[pi]
		jr := pivots[min(pi+1, np-1)]
		h := computeHint(mode, int32(j), ws.results[jl], ws.results[jr], ws.pathsOf(jl), ws.pathsOf(jr))
		if hintsOut != nil {
			hintsOut[ws.sorted[j].pos] = expandHint{start: h.start, level: h.startLvl}
		}
		c.Work(int64(m.cfg.HLow + 2))
		if h.direct && !sr.withPreds {
			ws.results[j] = h.result
			ws.done[j] = true
			continue
		}
		if sr.withPreds && !h.start.IsNil() {
			sr.borrowPreds(j, jl, h.startLvl, insertHeights[ws.sorted[j].pos])
		}
		sends = append(sends, m.startSend(sr.newTask(j, false, false), h.start, h.startLvl))
	}
	ws.sends = sends
	m.runWave(c, sends)
	if sr.withPreds {
		ws.groupPreds(B)
	}
	if a := m.maxAccessThisPhase(); a > sr.maxAcc {
		sr.maxAcc = a
	}

	m.unsortResults(c)
	c.Tracker().Free(int64(np * (2*m.cfg.HLow + 2)))
	c.Tracker().Free(int64(B))
	return ws.outRes, sr.phases, sr.maxAcc
}

// sortItem pairs a key with its input position for batch sorting.
type sortItem[K cmp.Ordered] struct {
	k   K
	pos int32
}

// unsortResults maps wave results (sorted order) back to input order in
// ws.outRes, and fills ws.idOf (input pos → sorted id) so predsOfPos can
// translate. The idOf fill is bookkeeping the old remapPreds map rebuild
// did implicitly — uncharged then and now.
func (m *Map[K, V]) unsortResults(c *cpu.Ctx) {
	ws := m.ws
	c.WorkFlat(int64(len(ws.sorted)))
	for j := range ws.sorted {
		r := ws.results[j]
		r.id = ws.sorted[j].pos
		ws.outRes[ws.sorted[j].pos] = r
		ws.idOf[ws.sorted[j].pos] = int32(j)
	}
}
