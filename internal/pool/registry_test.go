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

// TestRegistryEvictionOrder checks a GetOrCreate hit refreshes recency
// without rebuilding or replacing the value, and that eviction walks
// strictly from the least recently used end, one entry per overflow.
func TestRegistryEvictionOrder(t *testing.T) {
	r := NewRegistry[string, int](3)
	built := 0
	get := func(k string) int { return r.GetOrCreate(k, func() int { built++; return built }) }
	get("a")
	get("b")
	get("c")
	get("a")                   // order, most recent first: a c b
	if v := get("b"); v != 2 { // hit: b a c
		t.Fatalf("hit on b returned %d, want its first value 2", v)
	}
	if st := r.Stats(); built != 3 || st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("hits rebuilt, grew or evicted: %d builds, %+v", built, st)
	}
	// Each miss past the bound evicts exactly the least recently used entry.
	// Touching the survivors oldest first finds each without a build (so the
	// victim is the one missing) and leaves their order unchanged.
	for n, step := range []struct {
		miss      string
		survivors []string // oldest first
	}{{"d", []string{"a", "b", "d"}}, {"e", []string{"b", "d", "e"}}, {"f", []string{"d", "e", "f"}}} {
		get(step.miss)
		before := built
		for _, k := range step.survivors {
			get(k)
		}
		if built != before {
			t.Fatalf("after miss %s: a survivor of %v was evicted", step.miss, step.survivors)
		}
		if st := r.Stats(); st.Entries != 3 || st.Evictions != uint64(n+1) {
			t.Fatalf("after miss %s: stats = %+v, want 3 entries after %d evictions", step.miss, st, n+1)
		}
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
				// One key more than the bound keeps eviction busy.
				k := Key{Topology: fmt.Sprint(i % 5)}
				m := r.GetOrCreate(k, func() *sync.Map { return new(sync.Map) })
				m.Store(g*1000+i, true)
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Entries != 4 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want 4 entries after evictions", st)
	}
}
