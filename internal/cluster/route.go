// Epoch-versioned routing: the slot table that makes live rebalancing
// possible (docs/REBALANCE.md).
//
// Keys hash to one of Config.Slots routing slots (slotOf is a pure function
// of hash/Seed/Slots and never changes for the cluster's lifetime); an
// immutable slot→shard table maps slots to owners. Each migration builds a
// new table and publishes it atomically as the next epoch. Because every
// batch runs under the cluster's single-flight gate and a migration's
// cutover holds that same gate, a batch observes exactly one epoch: the old
// epoch is fully drained (no batch in flight) before the new one becomes
// visible, which is what keeps replies bit-identical to a single Map across
// a cutover.
package cluster

import (
	"cmp"
	"sync/atomic"

	"pimgo/internal/rng"
)

// epochView is one immutable snapshot of the routing state: the epoch id,
// the slot→shard ownership table, the shard roster, and the per-shard owned
// slot counts (owned[s] == 0 marks a retired shard, which broadcasts skip).
// Readers load the whole view with one atomic pointer load; writers
// (migrations) build a fresh view and publish it with one store while
// holding the batch gate.
type epochView[K cmp.Ordered, V any] struct {
	id     int64
	slots  []int32
	shards []*shard[K, V]
	owned  []int
}

// newEpochView builds a view, deriving owned from the table.
func newEpochView[K cmp.Ordered, V any](id int64, slots []int32, shards []*shard[K, V]) *epochView[K, V] {
	v := &epochView[K, V]{id: id, slots: slots, shards: shards, owned: make([]int, len(shards))}
	for _, s := range slots {
		v.owned[s]++
	}
	return v
}

// viewPtr wraps the atomic pointer so Cluster's zero value stays illegal to
// use (New always stores the initial view).
type viewPtr[K cmp.Ordered, V any] struct {
	p atomic.Pointer[epochView[K, V]]
}

func (v *viewPtr[K, V]) load() *epochView[K, V]   { return v.p.Load() }
func (v *viewPtr[K, V]) store(e *epochView[K, V]) { v.p.Store(e) }

// slotOf returns the routing slot of key: Mix64(hash(k) ^ salt) mod Slots.
// Pure in (hash, Seed, Slots) — independent of shard count, shard health,
// and epoch, so a key's slot never moves; only the slot's owner does.
func (c *Cluster[K, V]) slotOf(key K, nslots int) int {
	return int(rng.Mix64(c.hash(key)^c.salt) % uint64(nslots))
}

// Epoch returns the current routing-table epoch. It starts at 0 and
// increments once per published migration (SplitShard, MergeShards, or each
// action of Rebalance).
func (c *Cluster[K, V]) Epoch() int64 { return c.view.load().id }

// Slots returns the number of routing slots (fixed at construction; see
// Config.Slots).
func (c *Cluster[K, V]) Slots() int { return len(c.view.load().slots) }

// SlotOf returns the routing slot key hashes to. Unlike ShardFor this never
// changes for a given cluster.
func (c *Cluster[K, V]) SlotOf(key K) int {
	return c.slotOf(key, len(c.view.load().slots))
}

// ShardOfSlot returns the shard that currently owns routing slot i.
func (c *Cluster[K, V]) ShardOfSlot(i int) int {
	return int(c.view.load().slots[i])
}
