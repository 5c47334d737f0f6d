package pool

import (
	"container/list"
	"sync"
)

// Registry is the pool's shared-value sibling: a bounded LRU cache of values
// that are *not* leased exclusively. Where Pool hands out one encoder to one
// goroutine at a time, a Registry entry is handed to every caller with the
// same key simultaneously. It holds the cube synthesis support pools
// (harvested counterexample-support clauses are monotone facts about an
// attack model, so concurrent synthesis runs on the same key can all
// publish into and seed from one shared value). Values must therefore be
// immutable or internally synchronized; the Registry only guards its own
// bookkeeping.
//
// Entries are bounded by MaxEntries with least-recently-used eviction (every
// GetOrCreate touches its entry), in O(1) per operation. There
// is no poisoning path: registry values are pure accumulations of
// independently verified facts, so a failed run never invalidates them —
// contrast with Pool.Discard for encoders.
type Registry[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*list.Element
	lru     *list.List // front = most recently used
	stats   RegistryStats
}

type regEntry[K comparable, V any] struct {
	key   K
	value V
}

// RegistryStats counts registry traffic.
type RegistryStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int // gauge
}

// NewRegistry builds a registry bounded to maxEntries values (values ≤ 0
// select the default of 64).
func NewRegistry[K comparable, V any](maxEntries int) *Registry[K, V] {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Registry[K, V]{max: maxEntries, entries: make(map[K]*list.Element), lru: list.New()}
}

// GetOrCreate returns the value registered under key, building it with
// create on first use. The build runs under the registry lock — keep create
// cheap (allocate an empty accumulator, not a populated one).
func (r *Registry[K, V]) GetOrCreate(key K, create func() V) V {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.entries[key]; ok {
		r.stats.Hits++
		r.lru.MoveToFront(el)
		return el.Value.(*regEntry[K, V]).value
	}
	r.stats.Misses++
	v := create()
	r.entries[key] = r.lru.PushFront(&regEntry[K, V]{key: key, value: v})
	// Evict from the least recently used end past the bound.
	for r.lru.Len() > r.max {
		oldest := r.lru.Remove(r.lru.Back()).(*regEntry[K, V])
		delete(r.entries, oldest.key)
		r.stats.Evictions++
	}
	return v
}

// Stats snapshots registry counters.
func (r *Registry[K, V]) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Entries = len(r.entries)
	return st
}
