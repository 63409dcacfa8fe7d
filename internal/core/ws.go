package core

// Per-Map batch workspace (DESIGN.md §5). Every batch operation draws its
// CPU-side scratch — result/sort/send buffers, the flat pred/path logs, task
// objects, and the parutil arena — from the Map's batchWS instead of
// allocating per call, so repeated batches on a long-lived Map are
// allocation-free in steady state. All buffers are truncated (never zeroed
// unless required) and retain capacity across batches.
//
// None of this changes any metered quantity: charges happen at the same
// Work/Charge/Alloc call sites as before, and the flat pred/path layout
// reproduces the old per-id append order exactly (stable counting sort over
// an append-only log).

import (
	"cmp"

	"pimgo/internal/cpu"
	"pimgo/internal/parutil"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
)

// grow returns s resized to n, reusing capacity; contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// sliceInto returns dst resized to n if it has capacity, else a fresh slice.
// Used by the *Into variants of the public batch API.
func sliceInto[T any](dst []T, n int) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]T, n)
}

// arenaBlock is the element capacity of one taskArena block. Blocks are
// never reallocated, so a pointer returned by take stays valid (and uniquely
// owned) for the whole batch even while the arena keeps growing.
const arenaBlock = 256

// taskArena hands out pointers to reusable task/message objects from
// fixed-capacity blocks. Chunking is load-bearing, not a tuning detail: a
// taken task may be executing on another module's worker (which writes its
// embedded reply) while the owner module keeps taking — a growing flat slice
// would copy live elements mid-write. Blocks never move, so concurrent
// writes land on distinct, stable addresses. reset recycles every slot;
// callers must overwrite whatever fields they rely on, since slots keep
// their previous batch's contents.
type taskArena[T any] struct {
	blocks [][]T
	bi     int // index of the block currently being filled
}

func (a *taskArena[T]) take() *T {
	for a.bi < len(a.blocks) && len(a.blocks[a.bi]) == cap(a.blocks[a.bi]) {
		a.bi++
	}
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]T, 0, arenaBlock))
	}
	b := a.blocks[a.bi]
	b = b[:len(b)+1]
	a.blocks[a.bi] = b
	return &b[len(b)-1]
}

func (a *taskArena[T]) reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.bi = 0
}

// ptrIndex is an open-addressing pim.Ptr→int32 table replacing the
// map[pim.Ptr]int32 Delete used to build its contraction graph. pim.NilPtr
// (0) doubles as the empty-slot sentinel; nil pointers are never inserted.
type ptrIndex struct {
	keys []pim.Ptr
	vals []int32
	mask uint64
}

// init sizes the table for up to hint insertions and clears it, reusing the
// backing arrays when large enough.
func (px *ptrIndex) init(hint int) {
	sz := 16
	for sz < 4*hint {
		sz <<= 1
	}
	if cap(px.keys) >= sz {
		px.keys = px.keys[:sz]
		px.vals = px.vals[:sz]
		clear(px.keys)
	} else {
		px.keys = make([]pim.Ptr, sz)
		px.vals = make([]int32, sz)
	}
	px.mask = uint64(sz - 1)
}

func (px *ptrIndex) get(p pim.Ptr) (int32, bool) {
	i := rng.Mix64(uint64(p)) & px.mask
	for {
		switch px.keys[i] {
		case p:
			return px.vals[i], true
		case pim.NilPtr:
			return 0, false
		}
		i = (i + 1) & px.mask
	}
}

func (px *ptrIndex) put(p pim.Ptr, v int32) {
	i := rng.Mix64(uint64(p)) & px.mask
	for px.keys[i] != pim.NilPtr {
		i = (i + 1) & px.mask
	}
	px.keys[i] = p
	px.vals[i] = v
}

// pathRec is one append-only path-log record: the op id it belongs to plus
// the recorded path entry. Grouping by id happens after each wave.
type pathRec struct {
	id int32
	e  pathEntry
}

// delGraph holds Delete's stage-2 contraction graph: one entry per distinct
// node touched by the marked set, with neighbour indices for list
// contraction. Same parallel-array layout the old map-based code built,
// minus the allocations.
type delGraph[K cmp.Ordered] struct {
	idx            ptrIndex
	left, right    []int32
	marked         []bool
	wasMarked      []bool
	nodeKey        []K
	nodePtr        []pim.Ptr
	keyKnown       []bool
	hadMarkedLeft  []bool
	hadMarkedRight []bool
}

func (g *delGraph[K]) reset(hint int) {
	g.idx.init(hint)
	g.left = g.left[:0]
	g.right = g.right[:0]
	g.marked = g.marked[:0]
	g.wasMarked = g.wasMarked[:0]
	g.nodeKey = g.nodeKey[:0]
	g.nodePtr = g.nodePtr[:0]
	g.keyKnown = g.keyKnown[:0]
	g.hadMarkedLeft = g.hadMarkedLeft[:0]
	g.hadMarkedRight = g.hadMarkedRight[:0]
}

// getIdx interns ptr, appending a fresh unmarked entry on first sight.
func (g *delGraph[K]) getIdx(p pim.Ptr) int32 {
	if p.IsNil() {
		return -1
	}
	if i, ok := g.idx.get(p); ok {
		return i
	}
	var zeroK K
	i := int32(len(g.left))
	g.idx.put(p, i)
	g.left = append(g.left, -1)
	g.right = append(g.right, -1)
	g.marked = append(g.marked, false)
	g.wasMarked = append(g.wasMarked, false)
	g.nodeKey = append(g.nodeKey, zeroK)
	g.nodePtr = append(g.nodePtr, p)
	g.keyKnown = append(g.keyKnown, false)
	g.hadMarkedLeft = append(g.hadMarkedLeft, false)
	g.hadMarkedRight = append(g.hadMarkedRight, false)
	return i
}

// searchRun carries one searchCore invocation's parameters and accumulators,
// replacing the per-call closures (newTask/borrowPreds/runPhase) that used
// to capture them.
type searchRun[K cmp.Ordered, V any] struct {
	m             *Map[K, V]
	c             *cpu.Ctx
	mode          searchMode
	insertHeights []int8
	hintsOut      []expandHint
	withPreds     bool
	B, np         int
	phases        int
	maxAcc        int64
}

// modScratch holds a module's reusable task and reply-message objects.
// Each module's executor is the only goroutine that takes from its own
// scratch within a round (executor serialism), and batches reset it on the
// caller goroutine before any round runs, so no synchronization is needed.
type modScratch[K cmp.Ordered, V any] struct {
	searchTasks taskArena[searchTask[K, V]]
	fetchTasks  taskArena[fetchLeafTask[K, V]]
	markTasks   taskArena[markLowerTask[K, V]]
	results     taskArena[resultMsg[K, V]]
	paths       taskArena[pathMsg]
	preds       taskArena[predMsg[K]]
	marks       taskArena[markMsg[K]]
}

func (s *modScratch[K, V]) reset() {
	s.searchTasks.reset()
	s.fetchTasks.reset()
	s.markTasks.reset()
	s.results.reset()
	s.paths.reset()
	s.preds.reset()
	s.marks.reset()
}

// batchWS is the per-Map reusable batch workspace. It must not be shared
// across Maps (no aliasing contract — see docs/MODEL.md); distinct Maps own
// distinct workspaces and may run batches concurrently.
type batchWS[K cmp.Ordered, V any] struct {
	tr   *cpu.Tracker
	root cpu.Ctx
	par  *parutil.Workspace

	// Tracing state (stats.go): the running batch's op name and the
	// open-phase snapshot. Maintained only while a trace sink is installed.
	op string
	ph phaseSnap

	// Hand-off values from a batch's prep half to its exec half: the dedup
	// result (Get/Upsert/Delete). uniq aliases a parutil arena (or, with
	// NoDedup, the caller's keys), valid until the workspace's next dedup.
	prepUniq []K
	prepSlot []int32

	sends []pim.Send[*modState[K, V]]

	// Dedup / reply scratch shared by Get, Update, Upsert, Delete.
	slotSeq  []int32
	greplies []getMsg[V]
	found    []bool
	chosen   []V
	seq      []int

	// Batch-search state (sorted order unless noted).
	sorted  []sortItem[K]
	results []resultMsg[K, V]
	done    []bool
	outRes  []resultMsg[K, V] // input order
	idOf    []int32           // input pos → sorted id
	pivots  []int
	medians []int
	execd   []bool
	search  searchRun[K, V]

	// Flat path/pred storage: append-only logs regrouped by op id after
	// each wave with a stable counting sort (counts + prefix-sum offsets),
	// replacing the old per-id map of slices.
	pathLog  []pathRec
	pathCnt  []int32
	pathOff  []int32 // len B+1
	pathFlat []pathEntry
	predLog  []predMsg[K]
	predCnt  []int32
	predOff  []int32 // len B+1
	predFlat []predMsg[K]

	// CPU-side task arenas.
	getTasks   taskArena[getTask[K, V]]
	updTasks   taskArena[updateTask[K, V]]
	probeTasks taskArena[upsertProbeTask[K, V]]
	delTasks   taskArena[deleteProbeTask[K, V]]
	srchTasks  taskArena[searchTask[K, V]]
	wrTasks    taskArena[writeRightTask[K, V]]
	wlTasks    taskArena[writeLeftTask[K, V]]
	flTasks    taskArena[freeLowerTask[K, V]]
	fuTasks    taskArena[freeUpperTask[K, V]]

	// Delete scratch.
	marks []markMsg[K]
	del   delGraph[K]

	// Prebuilt closures (allocated once at Map creation). sortLess exists
	// because referencing sortItemLess[K] inside a generic method builds a
	// dictionary-binding closure on every mention — caching the func value
	// here pays that allocation once per Map instead of once per batch.
	onGet    func(*getMsg[V])
	onFound  func(*getMsg[V])
	keepMiss func(int) bool
	sortLess func(a, b sortItem[K]) bool
}

func newBatchWS[K cmp.Ordered, V any]() *batchWS[K, V] {
	ws := &batchWS[K, V]{
		tr:  cpu.NewTracker(),
		par: parutil.NewWorkspace(),
	}
	ws.onGet = func(v *getMsg[V]) { ws.greplies[v.id] = *v }
	ws.onFound = func(v *getMsg[V]) { ws.found[v.id] = v.found }
	ws.keepMiss = func(i int) bool { return !ws.found[i] }
	ws.sortLess = sortItemLess[K]
	return ws
}

// resetArenas recycles every CPU-side task arena and truncates the logs.
func (ws *batchWS[K, V]) resetArenas() {
	ws.getTasks.reset()
	ws.updTasks.reset()
	ws.probeTasks.reset()
	ws.delTasks.reset()
	ws.srchTasks.reset()
	ws.wrTasks.reset()
	ws.wlTasks.reset()
	ws.flTasks.reset()
	ws.fuTasks.reset()
	ws.pathLog = ws.pathLog[:0]
	ws.predLog = ws.predLog[:0]
	ws.marks = ws.marks[:0]
}

// groupPaths stably regroups the append-only path log by op id: counts,
// prefix-sum offsets, then a scatter that preserves per-id append order.
// Bookkeeping only — uncharged, like the grouping the map-based code did
// implicitly via per-id appends.
func (ws *batchWS[K, V]) groupPaths(b int) {
	cnt := grow(ws.pathCnt, b)
	clear(cnt)
	for i := range ws.pathLog {
		cnt[ws.pathLog[i].id]++
	}
	off := grow(ws.pathOff, b+1)
	off[0] = 0
	for j := 0; j < b; j++ {
		off[j+1] = off[j] + cnt[j]
	}
	flat := grow(ws.pathFlat, len(ws.pathLog))
	copy(cnt, off[:b]) // reuse cnt as scatter cursor
	for i := range ws.pathLog {
		r := &ws.pathLog[i]
		flat[cnt[r.id]] = r.e
		cnt[r.id]++
	}
	ws.pathCnt, ws.pathOff, ws.pathFlat = cnt, off, flat
}

// groupPreds is groupPaths for the predecessor-record log.
func (ws *batchWS[K, V]) groupPreds(b int) {
	cnt := grow(ws.predCnt, b)
	clear(cnt)
	for i := range ws.predLog {
		cnt[ws.predLog[i].id]++
	}
	off := grow(ws.predOff, b+1)
	off[0] = 0
	for j := 0; j < b; j++ {
		off[j+1] = off[j] + cnt[j]
	}
	flat := grow(ws.predFlat, len(ws.predLog))
	copy(cnt, off[:b])
	for i := range ws.predLog {
		id := ws.predLog[i].id
		flat[cnt[id]] = ws.predLog[i]
		cnt[id]++
	}
	ws.predCnt, ws.predOff, ws.predFlat = cnt, off, flat
}

// pathsOf returns sorted-id j's recorded path, valid until the next
// groupPaths call.
func (ws *batchWS[K, V]) pathsOf(j int) []pathEntry {
	s, e := ws.pathOff[j], ws.pathOff[j+1]
	return ws.pathFlat[s:e:e]
}

// predsOf returns sorted-id j's predecessor records, valid until the next
// groupPreds call.
func (ws *batchWS[K, V]) predsOf(j int) []predMsg[K] {
	s, e := ws.predOff[j], ws.predOff[j+1]
	return ws.predFlat[s:e:e]
}

// predsOfPos is predsOf keyed by input position (via the idOf translation
// filled in unsortResults). Upsert stage 3 consumes preds in input order.
func (ws *batchWS[K, V]) predsOfPos(pos int) []predMsg[K] {
	return ws.predsOf(int(ws.idOf[pos]))
}

// seqIntsWS fills and returns ws.seq with 0..n-1.
func (ws *batchWS[K, V]) seqIntsWS(n int) []int {
	ws.seq = grow(ws.seq, n)
	for i := range ws.seq {
		ws.seq[i] = i
	}
	return ws.seq
}
