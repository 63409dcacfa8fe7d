// Package pimgo is the public facade of the PIM-model reproduction: it
// re-exports the skip list (the paper's contribution), its configuration
// and statistics types, and the companion structures, so downstream users
// write `import "pimgo"` and never touch internal packages directly.
//
//	m := pimgo.NewMap[uint64, int64](pimgo.Config{P: 16, Seed: 42}, pimgo.Uint64Hash)
//	m.Upsert(keys, vals)
//	res, stats := m.Successor(queries)
//
// # Architecture
//
// A Map runs on a simulated Processing-in-Memory machine (internal/pim):
// P memory modules, each a sequential processor with private memory,
// driven bulk-synchronously by a CPU-side fork–join program
// (internal/cpu) whose work, depth, and peak shared memory are accounted
// analytically. Every batch operation returns BatchStats carrying the
// paper's cost metrics — rounds, IO time as h-relations, PIM time, sync
// cost, CPU work/depth, minimum M — each defined normatively in
// docs/METRICS.md. All metrics are deterministic: identical seeds give
// bit-identical structures and numbers regardless of GOMAXPROCS.
//
// Batches are PIM-balanced per the paper: pivot-based batched search
// (§4.2), Algorithm 1 insert linking (§4.3), list-contraction delete
// (§4.4), and broadcast/tree range operations (§5). Companion structures
// (HashMap, Sorter) cover the paper's stated future work; FaultPlan adds
// deterministic fault injection with a reliable transport on top.
//
// # Observability
//
// Installing a TraceSink (Config.Trace or Map.SetTraceSink) streams
// structured events — batch boundaries, per-phase metric deltas,
// per-round per-module IO, fault events — to a TraceProfile (exact
// per-phase attribution; Map.LastProfile) or a ChromeTracer
// (chrome://tracing / Perfetto export). With no sink installed the layer
// costs nothing: steady-state batches allocate zero and metrics are
// bit-identical. See docs/TRACING.md for the schema and guarantees.
//
// See README.md for the repository layout and EXPERIMENTS.md for the
// paper reproduction; the full API documentation lives on the aliased
// types.
package pimgo

import (
	"cmp"
	"io"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
	"pimgo/internal/frontend"
	"pimgo/internal/pim"
	"pimgo/internal/pimmap"
	"pimgo/internal/pimsort"
	"pimgo/internal/trace"
)

// Config configures a Map (see core.Config for field documentation).
type Config = core.Config

// BatchStats carries the PIM-model cost metrics of one batch.
type BatchStats = core.BatchStats

// Map is the PIM-balanced batch-parallel skip list of the paper.
type Map[K cmp.Ordered, V any] = core.Map[K, V]

// SearchResult is the outcome of a Predecessor/Successor operation.
type SearchResult[K cmp.Ordered, V any] = core.SearchResult[K, V]

// GetResult is the outcome of a Get operation.
type GetResult[V any] = core.GetResult[V]

// RangeOp describes one range operation over [Lo, Hi].
type RangeOp[K cmp.Ordered, V any] = core.RangeOp[K, V]

// RangePair is one key-value pair returned by range reads.
type RangePair[K cmp.Ordered, V any] = core.RangePair[K, V]

// RangeResult is the outcome of one range operation.
type RangeResult[K cmp.Ordered, V any] = core.RangeResult[K, V]

// RangeKind selects what a range operation does (count, read, transform).
type RangeKind = core.RangeKind

// Range operation kinds.
const (
	RangeCount     = core.RangeCount
	RangeRead      = core.RangeRead
	RangeTransform = core.RangeTransform
	RangeReduce    = core.RangeReduce
)

// Typed errors of the batch API; match with errors.Is. The legacy
// two-value methods panic with these values on caller mistakes; the Try*
// variants return them.
var (
	// ErrBadConfig reports an invalid Config (TryNewMap).
	ErrBadConfig = core.ErrBadConfig
	// ErrBadBatch reports malformed batch arguments, e.g. a keys/vals
	// length mismatch.
	ErrBadBatch = core.ErrBadBatch
	// ErrClosed reports use of a Map after Close.
	ErrClosed = core.ErrClosed
	// ErrInvalidModule reports a send routed outside [0, P).
	ErrInvalidModule = core.ErrInvalidModule
	// ErrFaultUnrecoverable reports that an installed fault plan defeated
	// the reliable transport's retransmit budget; see docs/MODEL.md.
	ErrFaultUnrecoverable = core.ErrFaultUnrecoverable
	// ErrConcurrentBatch reports a second batch started on a Map while
	// another is running. A Map is a single-driver structure; coalesce
	// concurrent single-op traffic through a Frontend instead.
	ErrConcurrentBatch = core.ErrConcurrentBatch
	// ErrMachineKilled reports that a terminal fault plan (KillFaultPlan)
	// permanently killed a machine mid-batch; only a supervisor rebuild
	// (Cluster) brings the shard back.
	ErrMachineKilled = pim.ErrMachineKilled
	// ErrShardDown reports a Cluster operation touching a permanently down
	// shard; it is surfaced per key (degraded mode), not per batch.
	ErrShardDown = cluster.ErrShardDown
	// ErrShardDraining reports a mutating Cluster batch routed to a
	// draining shard.
	ErrShardDraining = cluster.ErrShardDraining
	// ErrShardState reports an invalid shard lifecycle transition
	// (e.g. StartShard on a running shard).
	ErrShardState = cluster.ErrShardState
	// ErrRebalancing reports a Cluster migration rejected because another
	// migration is already in flight, or because the routing table changed
	// between planning and execution.
	ErrRebalancing = cluster.ErrRebalancing
)

// Frontend coalesces single-key operations from arbitrarily many client
// goroutines into amortized Map batches: clients call Get/Upsert/Delete/
// Successor one key at a time, a collector goroutine batches them (bounded
// by FrontendConfig.MaxBatch and MaxWait), runs the batch through the Map,
// and demultiplexes the replies. Replies are bit-identical to running each
// op as its own batch at the flush's linearization point; the steady-state
// enqueue/reply path allocates nothing. See docs/FRONTEND.md.
type Frontend[K cmp.Ordered, V any] = frontend.Frontend[K, V]

// FrontendConfig tunes the collector (batch size cap and dwell); the zero
// value selects the defaults.
type FrontendConfig = frontend.Config

// FrontendStats reports the collector's accumulated behaviour (flush count,
// coalesced sizes, queue waits); read it with Frontend.Stats.
type FrontendStats = frontend.Stats

// NewFrontend starts a collector over m and takes over as the Map's sole
// driver; stop it with Frontend.Close (the Map itself stays open). Direct
// batches on m while the frontend is open fail with ErrConcurrentBatch.
func NewFrontend[K cmp.Ordered, V any](m *Map[K, V], cfg FrontendConfig) *Frontend[K, V] {
	return frontend.New(m, cfg)
}

// FaultPlan injects deterministic message/module faults into the simulated
// machine; install one via Config.Fault. Nil means the paper's reliable
// network (the default, with zero simulation overhead).
type FaultPlan = core.FaultPlan

// FaultConfig parameterizes NewSeededFaultPlan.
type FaultConfig = core.FaultConfig

// FaultStats reports what a plan injected and what recovery cost; read it
// with Map.FaultStats.
type FaultStats = core.FaultStats

// NewSeededFaultPlan builds the deterministic built-in plan: every
// decision is a pure hash of (seed, round, module, message), so a faulted
// run replays bit-identically across runs and GOMAXPROCS settings.
func NewSeededFaultPlan(cfg FaultConfig) FaultPlan { return core.NewSeededFaultPlan(cfg) }

// DropFaultPlan drops each message with probability bp/10000.
func DropFaultPlan(seed uint64, bp int) FaultPlan { return pim.DropPlan(seed, bp) }

// DupFaultPlan duplicates each message with probability bp/10000; the
// reliable transport must deduplicate the copies.
func DupFaultPlan(seed uint64, bp int) FaultPlan { return pim.DupPlan(seed, bp) }

// DelayFaultPlan delays each message with probability bp/10000 by up to
// maxDelay rounds before delivery.
func DelayFaultPlan(seed uint64, bp, maxDelay int) FaultPlan {
	return pim.DelayPlan(seed, bp, maxDelay)
}

// StallFaultPlan slows a module's round with probability bp/10000,
// multiplying its processing cost by factor (straggler injection).
func StallFaultPlan(seed uint64, bp int, factor int64) FaultPlan {
	return pim.StallPlan(seed, bp, factor)
}

// CrashFaultPlan crash-stops a module with probability bp/10000 for the
// given number of rounds; its state is replayed on recovery.
func CrashFaultPlan(seed uint64, bp, rounds int) FaultPlan { return pim.CrashPlan(seed, bp, rounds) }

// ChaosFaultPlan mixes drops, duplicates, delays, stalls, and crashes at
// moderate rates — the plan the chaos soak and `pimbench chaos` use.
func ChaosFaultPlan(seed uint64) FaultPlan { return pim.ChaosPlan(seed) }

// KillFaultPlan permanently kills the machine at physical round at
// (terminal fault): inner (nil = fault-free) governs the rounds before the
// kill, after which every module is down forever and the in-flight batch
// fails with ErrMachineKilled. Meant for Cluster shards, whose supervisor
// rebuilds a killed shard from its journal under the inner plan; on a
// standalone Map the error is permanent.
func KillFaultPlan(at int64, inner FaultPlan) FaultPlan { return pim.KillPlan(at, inner) }

// TraceSink receives the structured trace events of a Map: batch start/end,
// phase spans with metric deltas, per-round module IO, and fault-layer
// events. Install one via Config.Trace or Map.SetTraceSink; nil (the
// default) has zero overhead. The event schema and the zero-overhead
// contract are documented in docs/TRACING.md.
type TraceSink = trace.Sink

// TraceProfile is the aggregating TraceSink: it attributes every Table 1
// metric to the algorithm phase that produced it. Read the most recent
// batch's breakdown with Map.LastProfile, cross-batch aggregates with
// TraceProfile.ByOp.
type TraceProfile = trace.Profile

// BatchProfile is one batch's (or one op kind's aggregated) per-phase
// metric attribution, produced by a TraceProfile.
type BatchProfile = trace.BatchProfile

// PhaseTotals is the attribution of one phase within a BatchProfile.
type PhaseTotals = trace.PhaseTotals

// TracePhase identifies an algorithm phase in trace events (sort, semisort,
// search, execute, rebuild, contract, other).
type TracePhase = trace.Phase

// Trace phase identifiers (see docs/TRACING.md for the taxonomy).
const (
	PhaseOther    = trace.PhaseOther
	PhaseSort     = trace.PhaseSort
	PhaseSemisort = trace.PhaseSemisort
	PhaseSearch   = trace.PhaseSearch
	PhaseExecute  = trace.PhaseExecute
	PhaseRebuild  = trace.PhaseRebuild
	PhaseContract = trace.PhaseContract
)

// TraceSpan is one completed phase span: the metric deltas the phase
// produced.
type TraceSpan = trace.Span

// TraceTotals is a batch's headline metric totals as seen by trace sinks.
type TraceTotals = trace.Totals

// TraceRoundStat is one machine round's statistics (h-relation, max work,
// per-module IO split).
type TraceRoundStat = trace.RoundStat

// TraceModuleIO is one module's in/out/work contribution to a round.
type TraceModuleIO = trace.ModuleIO

// TraceFaultEvent is one fault-layer event (injection or recovery action).
type TraceFaultEvent = trace.FaultEvent

// TraceFaultKind enumerates fault-layer event kinds; the names mirror the
// FaultStats counters one to one.
type TraceFaultKind = trace.FaultKind

// TraceFlushStat describes one Frontend flush: ops coalesced, ops actually
// submitted after write-coalescing, queue waits, and flush wall time (the
// collector lives outside the simulated machine, so wall clock is the
// honest unit — see docs/FRONTEND.md).
type TraceFlushStat = trace.FlushStat

// TraceFlushSink is optionally implemented by trace sinks that want the
// Frontend's flush events in addition to the machine stream; TraceProfile
// implements it (read back with TraceProfile.Collector).
type TraceFlushSink = trace.FlushSink

// TraceCollectorTotals is TraceProfile's aggregate over Frontend flush
// events.
type TraceCollectorTotals = trace.CollectorTotals

// TraceMigrationStat describes one shard's part in a published cluster
// migration (epoch, slot delta, keys bulk-loaded, suffix batches replayed,
// retries, model cost, or retirement), emitted to that shard's sink under
// the batch gate at cutover.
type TraceMigrationStat = trace.MigrationStat

// TraceMigrationSink is optionally implemented by trace sinks that want the
// Cluster's migration events in addition to the machine stream;
// TraceProfile implements it (read back with TraceProfile.Migrations).
type TraceMigrationSink = trace.MigrationSink

// TraceMigrationTotals is TraceProfile's aggregate over migration events.
type TraceMigrationTotals = trace.MigrationTotals

// TraceRebalanceStat describes one invocation of the ClusterFrontend's
// rebalance control loop: the ClusterDeltaLoads window consumed, the
// actions the policy proposed, the migrations that published a new routing
// epoch, and whether the attempt failed transiently against a stale
// window. Emitted from the collector goroutine between flushes.
type TraceRebalanceStat = trace.RebalanceStat

// TraceRebalanceSink is optionally implemented by trace sinks that want the
// ClusterFrontend's control-loop events in addition to the machine stream;
// TraceProfile implements it (read back with TraceProfile.Rebalances).
type TraceRebalanceSink = trace.RebalanceSink

// TraceRebalanceTotals is TraceProfile's aggregate over control-loop
// rebalance events.
type TraceRebalanceTotals = trace.RebalanceTotals

// ChromeTracer is the TraceSink that streams Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
type ChromeTracer = trace.ChromeTracer

// NewTraceProfile returns an empty aggregating profile sink.
func NewTraceProfile() *TraceProfile { return trace.NewProfile() }

// NewChromeTracer returns a ChromeTracer streaming to w; call Close after
// the last batch to finalize the JSON document.
func NewChromeTracer(w io.Writer) *ChromeTracer { return trace.NewChromeTracer(w) }

// TeeTraceSinks fans trace events out to several sinks (nil entries are
// skipped), e.g. a TraceProfile and a ChromeTracer at once.
func TeeTraceSinks(sinks ...TraceSink) TraceSink { return trace.Tee(sinks...) }

// NewMap constructs an empty PIM skip list on a fresh simulated machine.
func NewMap[K cmp.Ordered, V any](cfg Config, hash func(K) uint64) *Map[K, V] {
	return core.New[K, V](cfg, hash)
}

// TryNewMap is NewMap with the error convention: an invalid Config or nil
// hasher returns ErrBadConfig instead of panicking.
func TryNewMap[K cmp.Ordered, V any](cfg Config, hash func(K) uint64) (*Map[K, V], error) {
	return core.TryNew[K, V](cfg, hash)
}

// RestoreMap builds a Map from a Snapshot in O(1) network rounds.
func RestoreMap[K cmp.Ordered, V any](cfg Config, hash func(K) uint64, keys []K, vals []V) (*Map[K, V], BatchStats) {
	return core.Restore(cfg, hash, keys, vals)
}

// Ready-made key hashers.
var (
	Uint64Hash = core.Uint64Hash
	Int64Hash  = core.Int64Hash
	IntHash    = core.IntHash
	StringHash = core.StringHash
)

// Cluster shards one logical ordered map across N fault-isolated Map
// shards, each on its own simulated machine with its own fault plan and
// trace sink, behind a deterministic hash router. Batches scatter by
// shard, execute shards in parallel, and gather replies into submission
// order — bit-identical to a single Map. Killed shards are rebuilt
// exactly-once from a journal, or degrade to typed per-key ErrShardDown
// errors. Live rebalancing (SplitShard, MergeShards, and the policy-driven
// Rebalance) moves routing slots between shards online through an
// epoch-versioned routing table, with replies bit-identical to a single
// Map across every cutover. See docs/CLUSTER.md and docs/REBALANCE.md.
type Cluster[K cmp.Ordered, V any] = cluster.Cluster[K, V]

// ClusterConfig configures a Cluster (shard count, template shard Config,
// per-shard fault plans and trace sinks, recovery policy).
type ClusterConfig = cluster.Config

// ClusterStats aggregates the model cost of one cluster batch: per-shard
// BatchStats (parallel shards combine by max for elapsed metrics, sum for
// throughput metrics) plus the rebuilds performed.
type ClusterStats = cluster.Stats

// ClusterShardStats is one shard's health and cost summary (state, journal
// size in batches and operations, kills, recoveries, migrations, and the
// accumulated, recovery-only, and migration-only cost accounts).
type ClusterShardStats = cluster.ShardStats

// ClusterShardState is one shard's lifecycle state.
type ClusterShardState = cluster.ShardState

// Shard lifecycle states.
const (
	ShardRunning  = cluster.ShardRunning
	ShardDraining = cluster.ShardDraining
	ShardDown     = cluster.ShardDown
	ShardRetired  = cluster.ShardRetired
)

// NewCluster builds a sharded cluster per cfg; hash is shared by the
// router and every shard.
func NewCluster[K cmp.Ordered, V any](cfg ClusterConfig, hash func(K) uint64) (*Cluster[K, V], error) {
	return cluster.New[K, V](cfg, hash)
}

// ClusterMigrateOpts tunes one live migration (SplitShard, MergeShards, or
// a Rebalance action): an OnPhase hook fired at the copy/catchup boundaries
// with the batch gate released, and the fault plan installed on a split's
// freshly created target shard. The zero value (or nil) is valid.
type ClusterMigrateOpts = cluster.MigrateOpts

// ClusterMigrationReport summarizes one published (or attempted) migration:
// the resulting epoch, slots and keys moved, journal-suffix batches carried
// across the cutover, build retries consumed by faults, shards added and
// retired, and the migration's total model cost.
type ClusterMigrationReport = cluster.MigrationReport

// Migration phase names passed to ClusterMigrateOpts.OnPhase.
const (
	// MigratePhaseCopy fires after the freeze, with the batch gate
	// released: client batches keep flowing while the frozen bases are
	// partitioned and bulk-loaded into the new incarnations.
	MigratePhaseCopy = cluster.PhaseCopy
	// MigratePhaseCatchup fires when the copy is complete, just before the
	// cutover reacquires the gate to replay the journal suffix and publish
	// the new epoch.
	MigratePhaseCatchup = cluster.PhaseCatchup
)

// ClusterShardLoad is one shard's load sample — routing-slot share, key
// count, and cumulative cost counters — fed to a ClusterRebalancePolicy by
// Cluster.Rebalance (sample directly with Cluster.Loads).
type ClusterShardLoad = cluster.ShardLoad

// ClusterDeltaLoads subtracts an earlier Cluster.Loads sample from a later
// one, matching by shard id, turning cumulative counters into a per-window
// load rate for hot-shard detection.
func ClusterDeltaLoads(cur, prev []ClusterShardLoad) []ClusterShardLoad {
	return cluster.DeltaLoads(cur, prev)
}

// ClusterRebalancePolicy proposes migrations from a load sample; pass one
// to Cluster.Rebalance. Implementations must be pure functions of the
// sample so rebalancing decisions replay deterministically.
type ClusterRebalancePolicy = cluster.RebalancePolicy

// ClusterRebalanceAction is one migration a policy proposes: split a hot
// shard or merge a cold one into another.
type ClusterRebalanceAction = cluster.RebalanceAction

// ClusterActionKind discriminates a ClusterRebalanceAction.
type ClusterActionKind = cluster.ActionKind

// Rebalance action kinds.
const (
	ActionSplit = cluster.ActionSplit
	ActionMerge = cluster.ActionMerge
)

// ClusterLoadRatioPolicy is the built-in hot/cold detector: shards whose
// load weight exceeds SplitAbove × the mean split, and the two lightest
// merge when both fall below MergeBelow × the mean. The zero value selects
// the defaults (2.0, 0.25, one action per call).
type ClusterLoadRatioPolicy = cluster.LoadRatioPolicy

// ClusterRebalanceReport is the outcome of one Cluster.Rebalance call: the
// proposed actions and their per-migration reports, index-aligned.
type ClusterRebalanceReport = cluster.RebalanceReport

// ClusterFrontend composes the whole serving stack: the Frontend's
// coalescing collector over an elastic Cluster. Arbitrarily many client
// goroutines submit single-key ops; one collector goroutine coalesces them
// (writes-before-reads, last-writer-wins — replies bit-identical to the
// single-Map Frontend), scatters each flush into per-shard sub-batches
// through the epoch-versioned slot table, and gathers exactly-once replies.
// With ClusterFrontendConfig.RebalanceEvery set it also drives the
// cluster's elasticity: a background sampler feeds per-window load deltas
// (ClusterDeltaLoads) to a ClusterRebalancePolicy and the collector runs
// the proposed migrations between flushes, so shards split and merge under
// live traffic with no client-visible errors. Create with
// NewClusterFrontend; see docs/FRONTEND.md and docs/ARCHITECTURE.md.
type ClusterFrontend[K cmp.Ordered, V any] = frontend.ClusterFrontend[K, V]

// ClusterFrontendConfig tunes the ClusterFrontend: the collector knobs of
// FrontendConfig (MaxBatch, MaxWait) plus the rebalance control loop's
// sampling interval, policy, and trace sink. The zero value selects the
// collector defaults and disables the loop.
type ClusterFrontendConfig = frontend.ClusterConfig

// ClusterFrontendStats extends FrontendStats with the control loop's
// counters (windows consumed, migrations proposed/published, transient
// stale-window failures absorbed); read it with ClusterFrontend.Stats.
type ClusterFrontendStats = frontend.ClusterStats

// NewClusterFrontend starts a collector (and, if configured, a rebalance
// loop) over c and takes over as the cluster's sole driver; stop it with
// ClusterFrontend.Close (the cluster itself stays open). Direct batches or
// migrations on c while the frontend is open race with the collector.
func NewClusterFrontend[K cmp.Ordered, V any](c *Cluster[K, V], cfg ClusterFrontendConfig) *ClusterFrontend[K, V] {
	return frontend.NewClusterFrontend(c, cfg)
}

// ShardTraceSink wraps a TraceSink so its op labels carry "s<id>/" shard
// attribution — what ClusterConfig.Trace installs on each shard's sink.
// Exported for callers that drive core Maps as shards by hand.
func ShardTraceSink(id int, inner TraceSink) TraceSink { return trace.Shard(id, inner) }

// HashMap is the unordered companion structure (future-work extension).
type HashMap[K comparable, V any] = pimmap.Map[K, V]

// NewHashMap constructs a PIM hash map over p modules.
func NewHashMap[K comparable, V any](p int, seed uint64, hash func(K) uint64) *HashMap[K, V] {
	return pimmap.New[K, V](p, seed, hash)
}

// Sorter is the distributed PIM sample sorter (future-work extension).
type Sorter = pimsort.Sorter

// SortStats reports a Sorter run's cost metrics.
type SortStats = pimsort.Stats

// NewSorter constructs a sorter over p modules.
func NewSorter(p int, seed uint64) *Sorter {
	return pimsort.New(p, seed)
}
