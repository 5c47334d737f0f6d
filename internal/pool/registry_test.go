package pool

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistrySharesValueAcrossCallers(t *testing.T) {
	r := NewRegistry[Key, *[]int](8)
	k := Key{Topology: "t", Shape: "s"}
	builds := 0
	get := func() *[]int {
		return r.GetOrCreate(k, func() *[]int { builds++; return new([]int) })
	}
	a, b := get(), get()
	if a != b {
		t.Fatal("same key must return the same value")
	}
	if builds != 1 {
		t.Fatalf("create ran %d times, want 1", builds)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegistryEvictsLRU(t *testing.T) {
	r := NewRegistry[Key, int](2)
	mk := func(i int) Key { return Key{Topology: fmt.Sprint(i)} }
	r.GetOrCreate(mk(1), func() int { return 1 })
	r.GetOrCreate(mk(2), func() int { return 2 })
	r.GetOrCreate(mk(1), func() int { return -1 }) // touch 1: 2 is now LRU
	r.GetOrCreate(mk(3), func() int { return 3 })  // evicts 2

	if got := r.GetOrCreate(mk(1), func() int { return -1 }); got != 1 {
		t.Fatalf("key 1 was evicted (got %d)", got)
	}
	if got := r.GetOrCreate(mk(2), func() int { return 22 }); got != 22 {
		t.Fatalf("key 2 survived eviction (got %d)", got)
	}
	if st := r.Stats(); st.Evictions < 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRegistryEvictionOrder checks Get and Put refresh recency exactly like
// GetOrCreate, that a Put on a present key replaces its value without
// growing the cache, and that eviction walks strictly from the least
// recently used end, one entry per overflow.
func TestRegistryEvictionOrder(t *testing.T) {
	r := NewRegistry[string, int](3)
	r.Put("a", 1)
	r.Put("b", 2)
	r.Put("c", 3)
	r.Get("a")                       // order, most recent first: a c b
	r.Put("b", 20)                   // replace + touch: b a c
	if v, _ := r.Get("b"); v != 20 { // b is already the newest: order unchanged
		t.Fatalf("replacing put kept %d, want 20", v)
	}
	if st := r.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("replacing put grew or evicted: %+v", st)
	}
	// Each Put past the bound evicts exactly the least recently used entry.
	// Probing only the expected victim keeps the probe from touching a
	// survivor (a miss refreshes nothing).
	for _, step := range []struct{ put, victim string }{{"d", "c"}, {"e", "a"}, {"f", "b"}} {
		r.Put(step.put, 0)
		if _, ok := r.Get(step.victim); ok {
			t.Fatalf("after put %s: %s survived, want it evicted as the LRU entry", step.put, step.victim)
		}
	}
	if v, ok := r.Get("f"); !ok || v != 0 {
		t.Fatalf("newest entry missing: %d %v", v, ok)
	}
	if st := r.Stats(); st.Entries != 3 || st.Evictions != 3 {
		t.Fatalf("stats = %+v, want 3 entries after 3 evictions", st)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry[Key, *sync.Map](4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := Key{Topology: fmt.Sprint(i % 3)}
				m := r.GetOrCreate(k, func() *sync.Map { return new(sync.Map) })
				m.Store(g*1000+i, true)
				// Get and Put share the same bookkeeping (the screen cache's
				// access pattern); a fourth key keeps eviction busy.
				if got, ok := r.Get(k); ok {
					got.Store(g*1000+i, true)
				}
				r.Put(Key{Topology: "x"}, m)
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
}
