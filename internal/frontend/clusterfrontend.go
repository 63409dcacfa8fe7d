package frontend

import (
	"cmp"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// ClusterConfig tunes the ClusterFrontend. The zero value selects the
// collector defaults and disables the rebalance loop.
type ClusterConfig struct {
	// MaxBatch and MaxWait tune the collector exactly as Config does for the
	// single-Map Frontend: MaxBatch caps ops per flush (0 selects 4096),
	// MaxWait adds an optional dwell (0 disables it).
	MaxBatch int
	MaxWait  time.Duration

	// RebalanceEvery enables the background rebalance control loop: every
	// interval, a sampler goroutine computes a cluster.DeltaLoads window
	// (what each shard did since the previous sample) and hands it to the
	// collector, which feeds it to Policy between flushes. 0 — the default —
	// disables the loop; the cluster's layout is then only changed by
	// explicit SplitShard/MergeShards calls made while the frontend is
	// closed.
	RebalanceEvery time.Duration
	// Policy decides what to migrate from each window. nil selects the zero
	// cluster.LoadRatioPolicy (split above 2× mean, merge below 0.25×, one
	// action per window).
	Policy cluster.RebalancePolicy

	// Trace optionally receives the frontend's event streams: per-flush
	// trace.FlushStat if it implements trace.FlushSink, and per-window
	// trace.RebalanceStat if it implements trace.RebalanceSink. Both streams
	// are emitted from the collector goroutine, so the sink observes one
	// serial stream (the trace.Sink single-goroutine contract holds). This
	// sink is separate from the per-shard sinks configured on the cluster.
	Trace trace.Sink
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.RebalanceEvery < 0 {
		c.RebalanceEvery = 0
	}
	return c
}

// ClusterStats extends the collector statistics with the rebalance control
// loop's counters; read with ClusterFrontend.Stats.
type ClusterStats struct {
	Stats

	// Windows counts DeltaLoads windows consumed by the control loop.
	Windows int64
	// Proposed counts migrations proposed by the policy across all windows;
	// Published counts those that published a new routing epoch.
	Proposed  int64
	Published int64
	// Transients counts windows whose proposed action failed against stale
	// loads (cluster.ErrRebalancing / cluster.ErrShardState) and was
	// dropped; the next window re-proposes from fresh data.
	Transients int64
}

// ClusterFrontend coalesces single-key operations from concurrent
// goroutines into batches on an elastic cluster.Cluster, exactly as
// Frontend does for one core.Map: same collector, same pooled futures,
// same writes-before-reads / last-writer-wins flush semantics, bit-identical
// replies. Each flush scatters into per-shard sub-batches through the
// cluster's epoch-versioned slot table and gathers exactly-once replies.
//
// On top of serving, the frontend can drive the cluster's elasticity: with
// ClusterConfig.RebalanceEvery set, a background sampler feeds per-window
// load deltas to a cluster.RebalancePolicy and the collector runs the
// proposed migrations between flushes — splits and merges happen under live
// coalesced traffic with no client-visible errors (transient
// cluster.ErrRebalancing outcomes are absorbed by the loop itself, never
// surfaced to clients).
//
// The frontend must be the cluster's only driver: its collector is the
// single goroutine calling the cluster's Try* batches and Rebalance, so the
// cluster's one-batch-at-a-time gate (cluster.ErrConcurrentBatch) is
// structurally satisfied. Direct batch or migration calls on the cluster
// while the frontend is open race with the collector.
//
// Degraded mode follows the cluster's error surface per key, not per flush:
// ops routed to a down shard fail with cluster.ErrShardDown (a write
// superseding chain on a down shard fails the whole chain — the key's
// presence is unknowable); ops on healthy shards are unaffected. Successor
// broadcasts are all-or-nothing, as in cluster.TrySuccessor.
type ClusterFrontend[K cmp.Ordered, V any] struct {
	collector[K, V]

	c   *cluster.Cluster[K, V]
	cfg ClusterConfig

	samplerDone chan struct{} // closed when the sampler exits; nil if no loop
}

// NewClusterFrontend starts a collector (and, if cfg.RebalanceEvery > 0, a
// load sampler) over c. The frontend takes over as the cluster's sole
// driver; use Close to stop it (the cluster itself is left open — closing
// it remains the caller's responsibility). Flush events go to cfg.Trace.
func NewClusterFrontend[K cmp.Ordered, V any](c *cluster.Cluster[K, V], cfg ClusterConfig) *ClusterFrontend[K, V] {
	cfg = cfg.withDefaults()
	f := &ClusterFrontend[K, V]{c: c, cfg: cfg}
	f.init(clusterExec[K, V]{c}, cfg.MaxBatch, cfg.MaxWait, func() trace.Sink { return cfg.Trace })
	if cfg.RebalanceEvery > 0 {
		f.rebalance = f.runRebalance
		f.samplerDone = make(chan struct{})
		go f.sampler()
	}
	go f.run()
	return f
}

// Cluster returns the underlying cluster (read-only introspection — Len,
// Epoch, Loads, ShardStats; do not run batches or migrations on it while
// the frontend is open).
func (f *ClusterFrontend[K, V]) Cluster() *cluster.Cluster[K, V] { return f.c }

// Stats returns a snapshot of the collector and control-loop statistics. A
// flush's counts land after its replies are delivered, so a client that has
// just received a reply may not yet see its op counted; once Close has
// returned, the snapshot is exact.
func (f *ClusterFrontend[K, V]) Stats() ClusterStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close drains the collector — every already-enqueued op still receives its
// reply — stops the rebalance loop, and shuts the frontend down. An
// unconsumed load window is dropped, and no new migration starts after
// Close begins (a migration already running completes first: cutover is
// not abandoned mid-flight). Ops submitted after Close fail with
// core.ErrClosed. Close is idempotent and safe to call concurrently:
// exactly one caller returns nil, every other call returns core.ErrClosed
// after the collector has fully drained. The underlying cluster stays open.
func (f *ClusterFrontend[K, V]) Close() error {
	err := f.close()
	if f.samplerDone != nil {
		<-f.samplerDone
	}
	return err
}

// sampler is the load-sampling goroutine: every RebalanceEvery it turns two
// cumulative cluster.Loads samples into a DeltaLoads window and publishes
// it for the collector. Only the newest unconsumed window is kept — if the
// collector is busy flushing (or migrating) across several ticks, stale
// windows are superseded, not queued: the policy should always judge the
// cluster by its most recent behaviour. It stops once Close has begun.
func (f *ClusterFrontend[K, V]) sampler() {
	defer close(f.samplerDone)
	tick := time.NewTicker(f.cfg.RebalanceEvery)
	defer tick.Stop()
	prev := f.c.Loads()
	for {
		select {
		case <-f.done:
			return
		case <-tick.C:
		}
		// Loads locks one shard at a time and never touches the batch path,
		// so sampling is safe concurrent with the collector's flushes.
		cur := f.c.Loads()
		w := cluster.DeltaLoads(cur, prev)
		prev = cur
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		f.windowSeq++
		f.window = w
		f.mu.Unlock()
		f.wake()
	}
}

// runRebalance feeds one DeltaLoads window to the policy and runs the
// proposed migrations via Cluster.RebalanceFrom, on the collector goroutine
// with no flush in flight — the cluster's single-flight gate is free, so
// ErrConcurrentBatch cannot occur. Migration copy/catchup phases drain the
// intake (flushPending) so client traffic keeps flowing while keys move.
//
// Errors are absorbed, never surfaced to clients: the window was sampled
// before the actions ran, so a proposed shard may have been retired or
// shrunk by the previous action (ErrShardState, ErrRebalancing). Such
// windows count as Transients and the next window re-proposes from fresh
// loads — transient-and-retry is the loop's steady state, not a failure.
func (f *ClusterFrontend[K, V]) runRebalance(w []cluster.ShardLoad, seq int64) {
	opts := &cluster.MigrateOpts{
		// copy and catchup fire with the migration gate released: drain
		// client ops that queued while the phase ran, so traffic flows
		// throughout the migration instead of stalling behind it.
		OnPhase: func(string) { f.flushPending() },
	}
	rep, err := f.c.RebalanceFrom(w, f.cfg.Policy, opts)
	published := 0
	for _, r := range rep.Reports {
		if r.SlotsMoved > 0 {
			published++
		}
	}
	f.mu.Lock()
	st := &f.stats
	st.Windows++
	st.Proposed += int64(len(rep.Actions))
	st.Published += int64(published)
	if err != nil {
		st.Transients++
	}
	f.mu.Unlock()
	if sink, ok := f.cfg.Trace.(trace.RebalanceSink); ok {
		sink.Rebalance(trace.RebalanceStat{
			Window:    seq,
			Shards:    len(w),
			Proposed:  len(rep.Actions),
			Published: published,
			Epoch:     f.c.Epoch(),
			Transient: err != nil,
		})
	}
}

// clusterExec is the cluster executor: the cluster's Try* calls with their
// stats dropped. Point ops fail per key on a down shard; Successor
// broadcasts fail all keys or none.
type clusterExec[K cmp.Ordered, V any] struct{ c *cluster.Cluster[K, V] }

func (x clusterExec[K, V]) upsert(keys []K, vals []V) ([]bool, []error, error) {
	res, errs, _, err := x.c.TryUpsert(keys, vals)
	return res, errs, err
}

func (x clusterExec[K, V]) delete(keys []K) ([]bool, []error, error) {
	res, errs, _, err := x.c.TryDelete(keys)
	return res, errs, err
}

func (x clusterExec[K, V]) get(keys []K) ([]core.GetResult[V], []error, error) {
	res, errs, _, err := x.c.TryGet(keys)
	return res, errs, err
}

func (x clusterExec[K, V]) successor(keys []K) ([]core.SearchResult[K, V], []error, error) {
	res, errs, _, err := x.c.TrySuccessor(keys)
	return res, errs, err
}
