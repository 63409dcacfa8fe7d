// Package pim implements the Processing-in-Memory machine model of
// Kang et al., SPAA 2021 (Fig. 1): P PIM modules, each a core with private
// local memory, connected to the CPU side by a network that operates in
// bulk-synchronous rounds.
//
// # Execution model
//
// A computation alternates CPU-side phases (instrumented by package cpu)
// with network rounds. In one round, the CPU side sends a set of messages
// (tasks) to modules; every module drains its task queue sequentially
// (it is a single core); tasks may reply to the CPU side and may request
// follow-up sends to other modules. As §2.1 specifies, a module offloads to
// another module by returning to shared memory, which causes the CPU side to
// perform the send — so a follow-up costs one outgoing message this round
// and one incoming message at the destination next round.
//
// # Cost accounting
//
// The simulator measures exactly the model's metrics:
//
//   - IO time: per round, h = max over modules of (messages in + messages
//     out); IO time is the sum of h over rounds (the h-relation cost of
//     §2.1). Message sizes are in words; a task or reply carrying k words
//     counts as k messages.
//   - PIM time: the maximum total local work charged by any one module
//     (tasks charge via Ctx.Charge).
//   - Rounds: the number of bulk-synchronous rounds (synchronization cost is
//     Rounds · log P, reported separately).
//   - Total messages, per-module work and message vectors (for the
//     PIM-balance experiments, which need the max/mean ratio).
//
// Modules execute concurrently on real goroutines, but reply and follow-up
// collection is ordered (module-major, queue order), so every run with the
// same seed is bit-identical.
package pim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pimgo/internal/trace"
)

// ModuleID identifies a PIM module, in [0, P).
type ModuleID int32

// Task is a unit of offloaded computation: the model's TaskSend payload
// (function + arguments). Run executes on the destination module's core and
// may only touch that module's state (via ctx.State()).
type Task[S any] interface {
	Run(ctx *Ctx[S])
}

// TaskFunc adapts a function to the Task interface.
type TaskFunc[S any] func(ctx *Ctx[S])

// Run implements Task.
func (f TaskFunc[S]) Run(ctx *Ctx[S]) { f(ctx) }

// Send is one CPU→module message: a task plus its size in words.
type Send[S any] struct {
	To    ModuleID
	Task  Task[S]
	Words int64 // message size; 0 is treated as 1
}

// Reply is one module→CPU message, produced by Ctx.Reply.
type Reply struct {
	From ModuleID
	V    any
}

// Module is one PIM module: a core plus private local memory. State holds
// the module-local data structures (arenas, hash tables, ...). Only the
// module's own tasks may touch State.
type Module[S any] struct {
	ID    ModuleID
	State S

	work int64 // total local work charged
	msgs int64 // total messages in+out

	// Per-round scratch, reset by the machine after each round.
	roundWork int64
	roundMsgs int64
	roundIn   int64 // incoming words this round; maintained only when tracing
	queue     []Send[S]
	replies   []Reply
	follow    []Send[S]

	// sendErr records the first invalid follow-up send a task on this
	// module requested; surfaced as the round's error after execution so a
	// worker goroutine never panics with parked peers holding the round.
	sendErr error

	// Reliable-transport state (reliable.go), nil unless a FaultPlan is
	// installed — the disabled path never touches these.
	relDone    map[uint64]*ackRec[S] // logical send id → done-record
	relIDs     []uint64              // id of queue[j]
	relSpans   []relSpan             // output high-water marks after queue[j]
	relInWords int64                 // incoming words this sub-round
	relHold    []relHeld[S]          // reorder buffer: arrivals ahead of the gap
	relExpect  uint64                // next sequence number to execute
	relSeqNext uint64                // next sequence number to assign (CPU side)
}

// Work returns the total local work this module has performed.
func (m *Module[S]) Work() int64 { return m.work }

// Msgs returns the total messages to/from this module.
func (m *Module[S]) Msgs() int64 { return m.msgs }

// Ctx is the execution context a Task receives: it identifies the module,
// charges work, and emits messages.
type Ctx[S any] struct {
	mod *Module[S]
	p   int
}

// Module returns the executing module's ID.
func (c *Ctx[S]) Module() ModuleID { return c.mod.ID }

// P returns the number of modules in the machine.
func (c *Ctx[S]) P() int { return c.p }

// State returns the executing module's local state.
func (c *Ctx[S]) State() S { return c.mod.State }

// Charge records n units of local work on this module's core.
func (c *Ctx[S]) Charge(n int64) { c.mod.roundWork += n }

// Reply sends v back to the CPU-side shared memory as a one-word message.
func (c *Ctx[S]) Reply(v any) { c.ReplyWords(v, 1) }

// ReplyWords sends v back to the CPU side as a words-sized message (use for
// replies carrying multiple words, e.g. recorded search paths).
func (c *Ctx[S]) ReplyWords(v any, words int64) {
	if words <= 0 {
		words = 1
	}
	c.mod.roundMsgs += words
	c.mod.replies = append(c.mod.replies, Reply{From: c.mod.ID, V: v})
}

// Send requests a follow-up task on another module, routed through the CPU
// side as the model prescribes: it costs one outgoing message now and one
// incoming message at to when the machine delivers it next round.
func (c *Ctx[S]) Send(to ModuleID, t Task[S]) { c.SendWords(to, t, 1) }

// SendWords is Send with an explicit message size in words. A destination
// outside [0, P) is rejected here — recorded on the module and surfaced as
// the round's error — rather than panicking on a worker goroutine with
// parked peers holding the round.
func (c *Ctx[S]) SendWords(to ModuleID, t Task[S], words int64) {
	if uint32(to) >= uint32(c.p) {
		if c.mod.sendErr == nil {
			c.mod.sendErr = fmt.Errorf("%w: follow-up from module %d targets module %d (P=%d)",
				ErrInvalidModule, c.mod.ID, to, c.p)
		}
		return
	}
	if words <= 0 {
		words = 1
	}
	c.mod.roundMsgs += words
	c.mod.follow = append(c.mod.follow, Send[S]{To: to, Task: t, Words: words})
}

// Metrics are the accumulated network-side costs of a machine.
type Metrics struct {
	Rounds       int64 // bulk-synchronous rounds executed
	IOTime       int64 // Σ over rounds of max per-module messages (h-relation)
	PIMRoundTime int64 // Σ over rounds of max per-module work (elapsed PIM view)
	TotalMsgs    int64 // Σ over rounds and modules of messages
}

// SyncCost returns the total synchronization cost, Rounds · log2(P),
// as defined in §2.1. logP is ceil(log2 P), at least 1.
func (m Metrics) SyncCost(p int) int64 {
	lg := int64(1)
	for 1<<lg < p {
		lg++
	}
	return m.Rounds * lg
}

// Machine is a PIM machine with P modules.
//
// A Machine is externally synchronized: at most one Round/Drive/Broadcast
// may be in flight at a time (batch operations are sequential phases of one
// computation). Metrics are therefore plain fields — the old engine carried
// a "just in case" mutex around the per-round metric update; it was dropped
// deliberately when the round engine moved to persistent workers, because
// the contract already forbids concurrent rounds and the lock was pure
// overhead on the hot path.
type Machine[S any] struct {
	mods []*Module[S]
	met  Metrics

	eng    *engine[S]   // persistent worker pool; nil ⇒ rounds run inline on the caller
	ctx    Ctx[S]       // the caller's reusable task context (workers own their own)
	rel    *relState[S] // reliable transport; nil unless a FaultPlan is installed
	closed bool         // set by Close; every later round returns ErrClosed

	// sink receives structured trace events (trace.Sink); nil — the default
	// — is the zero-overhead path: every emission site is a single nil
	// branch and no event is ever built. All emissions happen on the
	// caller goroutine, after metric aggregation, so traced metrics are
	// bit-identical to untraced ones. modIO is the reusable per-round
	// module-attribution scratch handed to RoundEnd (sink must not retain).
	sink  trace.Sink
	modIO []trace.ModuleIO

	active []*Module[S] // modules that received sends this round (scratch, reused)

	// Double-buffered aggregation outputs. Round alternates between the two
	// pairs, so the slices returned by round k stay intact while round k+1
	// runs — which is what lets Drive (and any caller) feed the follow slice
	// straight back into the next Round, and even extend it with append,
	// without copying. They are overwritten when round k+2 starts.
	replyBuf [2][]Reply
	folBuf   [2][]Send[S]
	bufIdx   int

	bcast []Send[S] // Machine.Broadcast scratch
}

// engine is the persistent worker pool of one Machine. Workers park on
// their wake channel between rounds and exit when quit closes. The engine
// deliberately does not reference the Machine: workers only reach the
// engine, so an abandoned Machine becomes unreachable, its finalizer runs
// Close, and the workers exit instead of leaking.
type engine[S any] struct {
	p      int
	wake   []chan struct{} // one buffered(1) channel per worker
	quit   chan struct{}
	stop   sync.Once
	next   atomic.Int64 // claim index into active
	active []*Module[S] // set by Round before waking workers
	wg     sync.WaitGroup
}

// NewMachine constructs a machine with p modules whose states are produced
// by newState (called once per module, in ID order).
//
// The machine owns min(GOMAXPROCS, p)−1 persistent worker goroutines (the
// calling goroutine acts as one more executor during Round); with
// GOMAXPROCS=1 no workers are spawned and rounds run entirely inline.
// Workers are parked between rounds and reaped by a finalizer when the
// machine becomes unreachable; call Close to release them sooner.
func NewMachine[S any](p int, newState func(id ModuleID) S) *Machine[S] {
	if p <= 0 {
		panic(fmt.Sprintf("pim: invalid module count %d", p))
	}
	return newMachineWorkers(p, defaultWorkers(p), newState)
}

// defaultWorkers is the spawned-worker count for a fresh machine: the
// caller participates in draining, so p modules need at most p executors
// and GOMAXPROCS bounds useful parallelism.
func defaultWorkers(p int) int {
	w := runtime.GOMAXPROCS(0)
	if w > p {
		w = p
	}
	return w - 1
}

// newMachineWorkers is NewMachine with an explicit spawned-worker count
// (tests use it to exercise the worker path regardless of GOMAXPROCS).
func newMachineWorkers[S any](p, workers int, newState func(id ModuleID) S) *Machine[S] {
	m := &Machine[S]{mods: make([]*Module[S], p)}
	m.ctx.p = p
	for i := 0; i < p; i++ {
		m.mods[i] = &Module[S]{ID: ModuleID(i)}
		m.mods[i].State = newState(ModuleID(i))
	}
	if workers > 0 {
		e := &engine[S]{p: p, wake: make([]chan struct{}, workers), quit: make(chan struct{})}
		for w := range e.wake {
			e.wake[w] = make(chan struct{}, 1)
			go e.worker(w)
		}
		m.eng = e
		runtime.SetFinalizer(m, (*Machine[S]).Close)
	}
	return m
}

// Close releases the machine's persistent workers. It is idempotent and
// optional — an unreachable machine is cleaned up by a finalizer. After
// Close, TryRound/TryDrive return ErrClosed deterministically (and the
// panicking Round/Drive wrappers panic with it) instead of racing dead
// workers. Close also clears that finalizer: a machine usually sits in a
// reference cycle (its owner → machine → module state → tasks → owner),
// and Go never collects a cycle that holds a finalizer, so without this a
// closed machine and everything it reaches would stay live forever.
func (m *Machine[S]) Close() {
	m.closed = true
	if m.eng != nil {
		m.eng.stop.Do(func() { close(m.eng.quit) })
		runtime.SetFinalizer(m, nil)
	}
}

// Closed reports whether Close has been called.
func (m *Machine[S]) Closed() bool { return m.closed }

// SetTraceSink installs (or, with nil, removes) a structured-event sink
// (see package trace and docs/TRACING.md). Must not be called while a
// round is in flight. With no sink the machine is the plain zero-overhead
// engine; with one, every round emits a trace.RoundStat with per-module
// send/receive word attribution, and the reliable transport additionally
// emits a trace.FaultEvent per injected fault and recovery action. All
// events fire on the goroutine driving the machine, in deterministic
// order, so traced runs are bit-identical across GOMAXPROCS settings.
func (m *Machine[S]) SetTraceSink(s trace.Sink) {
	m.sink = s
	if s == nil {
		for _, mod := range m.mods {
			mod.roundIn = 0
		}
	}
}

// TraceSink returns the installed trace sink, or nil.
func (m *Machine[S]) TraceSink() trace.Sink { return m.sink }

// worker is one persistent executor: parked on wake[w] between rounds, it
// claims active modules until the round is drained, then parks again.
func (e *engine[S]) worker(w int) {
	// One long-lived Ctx per worker: handing &ctx to Task.Run makes it
	// escape, so keeping it across rounds is what makes the steady-state
	// round allocation-free.
	var ctx Ctx[S]
	ctx.p = e.p
	for {
		select {
		case <-e.quit:
			return
		case <-e.wake[w]:
		}
		e.drain(&ctx)
		e.wg.Done()
	}
}

// drain claims modules off the active list until none remain. Each module
// is processed wholly by one executor, sequentially in queue order, so the
// model's "module = single core" semantics are preserved no matter how
// executors and modules interleave.
func (e *engine[S]) drain(ctx *Ctx[S]) {
	for {
		i := int(e.next.Add(1)) - 1
		if i >= len(e.active) {
			return
		}
		e.active[i].runQueue(ctx)
	}
}

// runQueue executes this module's task queue sequentially on the calling
// executor. With the reliable transport active (relDone non-nil) it skips
// ids that already executed this epoch — marking them with a placeholder
// so a second copy in the same queue is skipped too — and records output
// high-water marks after every entry so collection can slice each entry's
// reply bundle out of the shared round buffers.
func (mod *Module[S]) runQueue(ctx *Ctx[S]) {
	ctx.mod = mod
	if mod.relDone == nil {
		// Range by index: stays correct if a future task enqueues locally.
		for j := 0; j < len(mod.queue); j++ {
			mod.queue[j].Task.Run(ctx)
		}
		return
	}
	mod.relSpans = mod.relSpans[:0]
	for j := 0; j < len(mod.queue); j++ {
		id := mod.relIDs[j]
		if _, done := mod.relDone[id]; !done {
			mod.queue[j].Task.Run(ctx)
			mod.relDone[id] = nil // placeholder: executed, record pending
		}
		mod.relSpans = append(mod.relSpans, relSpan{
			r:    int32(len(mod.replies)),
			f:    int32(len(mod.follow)),
			msgs: mod.roundMsgs,
		})
	}
}

// P returns the number of modules.
func (m *Machine[S]) P() int { return len(m.mods) }

// Mod returns module id.
func (m *Machine[S]) Mod(id ModuleID) *Module[S] { return m.mods[id] }

// Metrics returns the accumulated network metrics.
func (m *Machine[S]) Metrics() Metrics { return m.met }

// PIMTime returns the maximum total local work over all modules — the
// model's PIM time metric.
func (m *Machine[S]) PIMTime() int64 {
	var max int64
	for _, mod := range m.mods {
		if mod.work > max {
			max = mod.work
		}
	}
	return max
}

// TotalPIMWork returns the sum of local work over all modules (the W in the
// PIM-balance definition: an algorithm is PIM-balanced if PIM time is
// O(W/P) and IO time is O(I/P)).
func (m *Machine[S]) TotalPIMWork() int64 {
	var sum int64
	for _, mod := range m.mods {
		sum += mod.work
	}
	return sum
}

// WorkVector returns a copy of per-module total work.
func (m *Machine[S]) WorkVector() []int64 {
	v := make([]int64, len(m.mods))
	for i, mod := range m.mods {
		v[i] = mod.work
	}
	return v
}

// MsgVector returns a copy of per-module total message counts.
func (m *Machine[S]) MsgVector() []int64 {
	v := make([]int64, len(m.mods))
	for i, mod := range m.mods {
		v[i] = mod.msgs
	}
	return v
}

// ResetMetrics zeroes all accumulated metrics (network and per-module),
// so a single batch operation can be measured in isolation. Module state
// (the data structure contents) is untouched.
func (m *Machine[S]) ResetMetrics() {
	m.met = Metrics{}
	for _, mod := range m.mods {
		mod.work, mod.msgs = 0, 0
	}
}

// Broadcast builds a send of t to every module (h = 1 per module). The
// slice is freshly allocated; prefer Machine.Broadcast on a hot path.
func Broadcast[S any](p int, t Task[S], words int64) []Send[S] {
	out := make([]Send[S], p)
	for i := range out {
		out[i] = Send[S]{To: ModuleID(i), Task: t, Words: words}
	}
	return out
}

// Broadcast builds a send of t to every module (h = 1 per module) in a
// machine-owned scratch buffer: allocation-free in steady state. The slice
// is valid until the next Broadcast on this machine; append elsewhere
// (which copies) to retain it.
func (m *Machine[S]) Broadcast(t Task[S], words int64) []Send[S] {
	out := m.bcast[:0]
	for i := range m.mods {
		out = append(out, Send[S]{To: ModuleID(i), Task: t, Words: words})
	}
	m.bcast = out
	return out
}

// runActive executes every module in active: the caller is always an
// executor; persistent workers are woken only when there is more than one
// active module to share. Wake channels are buffered and guaranteed empty
// here (the previous round's wg.Wait saw every woken worker finish), so
// waking never blocks.
func (m *Machine[S]) runActive(active []*Module[S]) {
	if k := len(active) - 1; k > 0 && m.eng != nil {
		e := m.eng
		if k > len(e.wake) {
			k = len(e.wake)
		}
		e.active = active
		e.next.Store(0)
		e.wg.Add(k)
		for w := 0; w < k; w++ {
			e.wake[w] <- struct{}{}
		}
		e.drain(&m.ctx)
		e.wg.Wait()
	} else {
		for _, mod := range active {
			mod.runQueue(&m.ctx)
		}
	}
}

// TryRound executes one bulk-synchronous round: it delivers sends to their
// modules, runs every module's queue (concurrently across modules,
// sequentially within a module), and returns the replies and the follow-up
// sends the CPU side must deliver next round. Reply and follow-up order is
// deterministic: module-major, then queue order.
//
// Errors are part of the hardened surface: ErrClosed after Close,
// ErrInvalidModule if any send (or any task's follow-up) targets a module
// outside [0, P) — validated before anything is dispatched, so a bad To
// never reaches a worker goroutine — and ErrFaultUnrecoverable when an
// installed FaultPlan defeats the retransmit budget (reliable.go).
//
// Contract: a TryRound with len(sends) == 0 is free — it returns
// (nil, nil, nil) without executing anything, counting a round, or
// touching Metrics. The model only charges synchronization when something
// communicates (see docs/MODEL.md, "Known accounting simplifications").
//
// The returned slices are machine-owned and double-buffered: they remain
// valid while the next round runs (so follow may be passed straight back
// in, and even extended with append), and are recycled when the round
// after that starts. Copy them to retain them longer.
//
// Cost accounting is charged at enqueue time — delivery here records the
// already-accumulated per-module counters — so none of the buffer reuse
// below can change any model metric.
func (m *Machine[S]) TryRound(sends []Send[S]) ([]Reply, []Send[S], error) {
	if m.closed {
		return nil, nil, ErrClosed
	}
	if len(sends) == 0 {
		return nil, nil, nil
	}
	if m.rel != nil {
		return m.reliableRound(sends)
	}
	// Validate every destination before the first enqueue, so an error
	// leaves no partially-delivered round behind.
	for i := range sends {
		if uint32(sends[i].To) >= uint32(len(m.mods)) {
			return nil, nil, fmt.Errorf("%w: send %d targets module %d (P=%d)",
				ErrInvalidModule, i, sends[i].To, len(m.mods))
		}
	}
	active := m.active[:0]
	traced := m.sink != nil
	for _, s := range sends {
		mod := m.mods[s.To]
		if len(mod.queue) == 0 {
			active = append(active, mod)
		}
		w := s.Words
		if w <= 0 {
			w = 1
		}
		mod.roundMsgs += w
		if traced {
			mod.roundIn += w
		}
		mod.queue = append(mod.queue, s)
	}
	m.active = active

	m.runActive(active)

	// Aggregate metrics and collect outputs in module-ID order ("module-
	// major"). Only modules that participated are touched; active is sorted
	// because it was built in first-send order. Follow-up fan-out delivers
	// in module-major order too, so in the common round the list arrives
	// nearly sorted and the sort is a cheap verification pass.
	slices.SortFunc(active, func(a, b *Module[S]) int { return int(a.ID) - int(b.ID) })
	idx := m.bufIdx
	m.bufIdx ^= 1
	replies := m.replyBuf[idx][:0]
	follow := m.folBuf[idx][:0]
	var maxMsgs, maxWork, total int64
	var sendErr error
	if traced {
		m.modIO = m.modIO[:0]
	}
	for _, mod := range active {
		if mod.sendErr != nil {
			if sendErr == nil {
				sendErr = mod.sendErr
			}
			mod.sendErr = nil
		}
		if mod.roundMsgs > maxMsgs {
			maxMsgs = mod.roundMsgs
		}
		if mod.roundWork > maxWork {
			maxWork = mod.roundWork
		}
		total += mod.roundMsgs
		mod.msgs += mod.roundMsgs
		mod.work += mod.roundWork
		replies = append(replies, mod.replies...)
		follow = append(follow, mod.follow...)
		if traced {
			m.modIO = append(m.modIO, trace.ModuleIO{
				Mod: int32(mod.ID), In: mod.roundIn,
				Out: mod.roundMsgs - mod.roundIn, Work: mod.roundWork,
			})
			mod.roundIn = 0
		}
		mod.roundMsgs, mod.roundWork = 0, 0
		// Truncate, don't nil: the backing arrays are the per-module
		// steady-state buffers that make the hot path allocation-free.
		mod.queue = mod.queue[:0]
		mod.replies = mod.replies[:0]
		mod.follow = mod.follow[:0]
	}
	m.replyBuf[idx] = replies
	m.folBuf[idx] = follow
	m.met.Rounds++
	m.met.IOTime += maxMsgs
	m.met.PIMRoundTime += maxWork
	m.met.TotalMsgs += total
	if traced {
		m.sink.RoundEnd(trace.RoundStat{
			Round: m.met.Rounds, H: maxMsgs, MaxWork: maxWork,
			TotalMsgs: total, Mods: m.modIO,
		})
	}
	if sendErr != nil {
		return nil, nil, sendErr
	}
	return replies, follow, nil
}

// Round is TryRound for callers that treat a misused machine as a
// programming error: it panics with the typed error (ErrClosed,
// ErrInvalidModule, ...) instead of returning it.
func (m *Machine[S]) Round(sends []Send[S]) ([]Reply, []Send[S]) {
	replies, follow, err := m.TryRound(sends)
	if err != nil {
		panic(err)
	}
	return replies, follow
}

// TryDrive runs sends and keeps delivering follow-ups until the machine is
// quiet, invoking onReply for every reply as rounds complete. It returns
// the number of rounds executed, stopping early with the round's error if
// one fails — a crashed-beyond-recovery machine fails the batch instead of
// deadlocking the loop. Use TryRound directly when the CPU side needs to
// interleave computation between rounds.
//
// Driving an empty sends slice executes zero rounds and leaves Metrics
// untouched (the empty-round contract of TryRound). The follow-up loop is
// allocation-free: each iteration feeds the machine-owned follow buffer
// back in, and the double-buffered pair inside the machine guarantees the
// slice being delivered is never the one being refilled.
func (m *Machine[S]) TryDrive(sends []Send[S], onReply func(Reply)) (int64, error) {
	if m.closed {
		return 0, ErrClosed
	}
	rounds := int64(0)
	for len(sends) > 0 {
		replies, next, err := m.TryRound(sends)
		if err != nil {
			return rounds, err
		}
		rounds++
		if onReply != nil {
			for _, r := range replies {
				onReply(r)
			}
		}
		sends = next
	}
	return rounds, nil
}

// Drive is TryDrive with the panicking error convention of Round.
func (m *Machine[S]) Drive(sends []Send[S], onReply func(Reply)) int64 {
	rounds, err := m.TryDrive(sends, onReply)
	if err != nil {
		panic(err)
	}
	return rounds
}
