package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"segrid/internal/faultinject"
	"segrid/internal/smt"
)

// testItem is a pool item instrumented to detect lease-exclusivity,
// quarantine and double-close violations.
type testItem struct {
	id     int
	key    Key
	inUse  atomic.Bool
	closed atomic.Int32
	dirty  bool // set by tests to make Reset fail
}

type testPool = Pool[*testItem]

func newTestPool(t *testing.T, cfg Config[*testItem]) (*testPool, *atomic.Int64) {
	t.Helper()
	var built atomic.Int64
	if cfg.New == nil {
		cfg.New = func(_ context.Context, key Key) (*testItem, error) {
			return &testItem{id: int(built.Add(1)), key: key}, nil
		}
	}
	if cfg.Reset == nil {
		cfg.Reset = func(it *testItem) error {
			if it.dirty {
				return errors.New("dirty")
			}
			return nil
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, &built
}

// countingClose returns a Close hook that flags double-closes and closes of
// in-use items, plus the total-closes counter.
func countingClose(t *testing.T) (func(*testItem), *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var closes, violations atomic.Int64
	return func(it *testItem) {
		closes.Add(1)
		if it.closed.Add(1) != 1 {
			violations.Add(1)
		}
		if it.inUse.Load() {
			violations.Add(1)
		}
	}, &closes, &violations
}

var keyA = Key{Topology: "ieee14", Shape: "anystate"}

// TestPoolWarmReuse checks the hit path hands back the exact instance the
// previous lease returned, and the counters see it.
func TestPoolWarmReuse(t *testing.T) {
	p, built := newTestPool(t, Config[*testItem]{})
	ctx := context.Background()

	l1, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Warm() {
		t.Fatalf("first checkout reported warm")
	}
	first := l1.Item
	if err := l1.Return(); err != nil {
		t.Fatal(err)
	}
	l2, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Warm() || l2.Item != first {
		t.Fatalf("second checkout got item %v (warm=%v), want warm reuse of %v", l2.Item, l2.Warm(), first)
	}
	// A different key must not see the warm item.
	l3, err := p.Checkout(ctx, Key{Topology: "ieee30", Shape: "anystate"})
	if err != nil {
		t.Fatal(err)
	}
	if l3.Warm() || l3.Item == first {
		t.Fatalf("cross-key checkout leaked a warm encoder")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 || built.Load() != 2 {
		t.Fatalf("stats = %+v, built = %d; want 1 hit, 2 misses, 2 builds", st, built.Load())
	}
}

// TestPoolQuarantine checks a discarded item never resurfaces.
func TestPoolQuarantine(t *testing.T) {
	p, _ := newTestPool(t, Config[*testItem]{})
	ctx := context.Background()
	l1, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := l1.Item
	if err := l1.Discard(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l, err := p.Checkout(ctx, keyA)
		if err != nil {
			t.Fatal(err)
		}
		if l.Item == poisoned {
			t.Fatalf("poisoned item resurfaced on checkout %d", i)
		}
		if err := l.Return(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", st.Discards)
	}
}

// TestPoolResetFailureQuarantines checks Return routes a failing Reset to
// quarantine instead of the warm list.
func TestPoolResetFailureQuarantines(t *testing.T) {
	p, _ := newTestPool(t, Config[*testItem]{})
	ctx := context.Background()
	l, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	bad := l.Item
	bad.dirty = true
	if err := l.Return(); err != nil {
		t.Fatalf("Return after failed reset should succeed (item quarantined), got %v", err)
	}
	l2, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Warm() || l2.Item == bad {
		t.Fatalf("reset-rejected item was pooled")
	}
	st := p.Stats()
	if st.ResetFailures != 1 || st.Discards != 1 || st.Returns != 0 {
		t.Fatalf("stats = %+v, want 1 reset failure counted as discard", st)
	}
}

// TestPoolExhaustionFailsFast checks the live bound returns ErrExhausted
// immediately instead of blocking.
func TestPoolExhaustionFailsFast(t *testing.T) {
	p, _ := newTestPool(t, Config[*testItem]{MaxLive: 2})
	ctx := context.Background()
	l1, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkout(ctx, keyA); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkout(ctx, keyA); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third checkout = %v, want ErrExhausted", err)
	}
	// Settling a lease frees the slot.
	if err := l1.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkout(ctx, keyA); err != nil {
		t.Fatalf("checkout after discard = %v, want success", err)
	}
}

// TestPoolEvictsIdleAtLiveCap checks a cold build at the live bound evicts
// the global LRU idle item instead of refusing: idle encoders of other keys
// must never lock a new key out. ErrExhausted is left for the case where
// every live item is leased.
func TestPoolEvictsIdleAtLiveCap(t *testing.T) {
	closeHook, closes, violations := countingClose(t)
	p, _ := newTestPool(t, Config[*testItem]{
		MaxLive: 2,
		Close:   closeHook,
	})
	ctx := context.Background()
	keyB := Key{Topology: "ieee30", Shape: "anystate"}
	keyC := Key{Topology: "ieee57", Shape: "anystate"}
	la, err := p.Checkout(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.Checkout(ctx, keyB)
	if err != nil {
		t.Fatal(err)
	}
	itemA := la.Item
	_ = la.Return() // A is now the global LRU idle item
	_ = lb.Return()

	lc, err := p.Checkout(ctx, keyC)
	if err != nil {
		t.Fatalf("checkout at the cap with idle items = %v, want an eviction", err)
	}
	if itemA.closed.Load() != 1 || closes.Load() != 1 {
		t.Fatalf("victim closed %d times (%d closes total), want the LRU item A closed once", itemA.closed.Load(), closes.Load())
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Live != 2 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 live, 1 idle", st)
	}
	// B is still warm; taking it leaves every live item leased.
	lb, err = p.Checkout(ctx, keyB)
	if err != nil || !lb.Warm() {
		t.Fatalf("checkout B = %v (warm %v), want the surviving idle item", err, lb != nil && lb.Warm())
	}
	if _, err := p.Checkout(ctx, keyA); !errors.Is(err, ErrExhausted) {
		t.Fatalf("checkout with every live item leased = %v, want ErrExhausted", err)
	}
	_ = lb.Return()
	_ = lc.Return()
	if violations.Load() != 0 {
		t.Fatalf("%d close violations", violations.Load())
	}
}

// TestPoolBuildErrorReleasesSlot checks a failing Config.New does not leak
// its reserved live slot.
func TestPoolBuildErrorReleasesSlot(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	cfg := Config[*testItem]{
		MaxLive: 1,
		New: func(_ context.Context, key Key) (*testItem, error) {
			if fail {
				return nil, boom
			}
			return &testItem{key: key}, nil
		},
	}
	p, _ := newTestPool(t, cfg)
	if _, err := p.Checkout(context.Background(), keyA); !errors.Is(err, boom) {
		t.Fatalf("checkout = %v, want build error", err)
	}
	fail = false
	if _, err := p.Checkout(context.Background(), keyA); err != nil {
		t.Fatalf("checkout after build failure = %v, want success (slot released)", err)
	}
	st := p.Stats()
	if st.Misses != 2 || st.BuildFailures != 1 {
		t.Fatalf("Misses = %d, BuildFailures = %d; want 2 cold attempts, 1 failure", st.Misses, st.BuildFailures)
	}
}

// TestPoolBuildFailureStatsNeverSkewed hammers the failing-build path while a
// reader snapshots Stats: Misses must never be observed below BuildFailures
// (the old implementation rolled Misses back after the fact, so a snapshot
// between increment and rollback over-reported misses and hit-rate math on
// successful checkouts went negative).
func TestPoolBuildFailureStatsNeverSkewed(t *testing.T) {
	boom := errors.New("boom")
	var built atomic.Int64
	cfg := Config[*testItem]{
		MaxLive: 16,
		New: func(_ context.Context, key Key) (*testItem, error) {
			if built.Add(1)%2 == 0 {
				return nil, boom
			}
			return &testItem{key: key}, nil
		},
	}
	p, _ := newTestPool(t, cfg)
	stop := make(chan struct{})
	var skews atomic.Int64
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			// Leases handed out so far can never exceed cold attempts plus
			// hits; with rollback, this transiently went negative.
			if st.Misses < st.BuildFailures {
				skews.Add(1)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l, err := p.Checkout(context.Background(), keyA)
				if err != nil {
					continue
				}
				_ = l.Discard()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if skews.Load() != 0 {
		t.Fatalf("%d Stats snapshots saw Misses < BuildFailures", skews.Load())
	}
	st := p.Stats()
	if st.Hits+st.Misses-st.BuildFailures != st.Discards {
		t.Fatalf("lease conservation broken: %+v", st)
	}
}

// TestPoolReturnNeverEvicts checks a Return only pools: with room below
// MaxLive, every same-key lease returned stays warm, and nothing is evicted
// or closed. A key holds as many idle items as it had concurrent leases.
func TestPoolReturnNeverEvicts(t *testing.T) {
	closeHook, closes, _ := countingClose(t)
	p, _ := newTestPool(t, Config[*testItem]{Close: closeHook})
	ctx := context.Background()
	var leases []*Lease[*testItem]
	for i := 0; i < 3; i++ {
		l, err := p.Checkout(ctx, keyA)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases {
		if err := l.Return(); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Idle != 3 || st.Evictions != 0 || closes.Load() != 0 {
		t.Fatalf("stats = %+v, closes = %d; want 3 idle, 0 evictions, 0 closes", st, closes.Load())
	}
}

// TestPoolLRUEvictionOrder checks the recency list spans keys: at the live
// cap, cold builds for new keys evict idle items in least-recently-used
// order regardless of key, and a warm checkout refreshes an item's recency.
func TestPoolLRUEvictionOrder(t *testing.T) {
	closeHook, closes, violations := countingClose(t)
	p, _ := newTestPool(t, Config[*testItem]{
		MaxLive: 3,
		Close:   closeHook,
	})
	ctx := context.Background()
	kb := Key{Topology: "ieee30", Shape: "anystate"}
	kc := Key{Topology: "ieee57", Shape: "anystate"}
	kd := Key{Topology: "ieee118", Shape: "anystate"}
	ke := Key{Topology: "ieee300", Shape: "anystate"}

	la, _ := p.Checkout(ctx, keyA)
	lb, _ := p.Checkout(ctx, kb)
	lc, _ := p.Checkout(ctx, kc)
	a, b, c := la.Item, lb.Item, lc.Item

	// Return order a, b, c ⇒ recency order (oldest first) a, b, c. The
	// cold build for d at the cap must evict a — the global LRU — even
	// though a, b, c live under three different keys.
	for _, l := range []*Lease[*testItem]{la, lb, lc} {
		if err := l.Return(); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := p.Checkout(ctx, kd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.Return(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Idle != 3 || st.Live != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 idle, 3 live, 1 eviction", st)
	}
	if a.closed.Load() != 1 {
		t.Fatalf("evicted LRU item not closed")
	}
	if b.closed.Load() != 0 || c.closed.Load() != 0 {
		t.Fatalf("survivors were closed")
	}

	// Touching b (checkout+return) makes c the LRU; the next cold build
	// must evict c.
	lb2, err := p.Checkout(ctx, kb)
	if err != nil || lb2.Item != b {
		t.Fatalf("checkout(kb) = %v, %v; want warm b", lb2, err)
	}
	if err := lb2.Return(); err != nil {
		t.Fatal(err)
	}
	le, err := p.Checkout(ctx, ke)
	if err != nil {
		t.Fatal(err)
	}
	if err := le.Return(); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if c.closed.Load() != 1 || b.closed.Load() != 0 {
		t.Fatalf("expected c evicted after b was touched; stats %+v", st)
	}
	if st.Evictions != 2 || st.Idle != 3 {
		t.Fatalf("stats = %+v, want 2 evictions and 3 idle", st)
	}
	if closes.Load() != 2 || violations.Load() != 0 {
		t.Fatalf("closes = %d (violations %d), want exactly 2", closes.Load(), violations.Load())
	}
}

// TestPoolDoubleSettle checks the lease lifecycle is one-way and single-use.
func TestPoolDoubleSettle(t *testing.T) {
	p, _ := newTestPool(t, Config[*testItem]{})
	l, err := p.Checkout(context.Background(), keyA)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Return(); err != nil {
		t.Fatal(err)
	}
	if err := l.Return(); err == nil {
		t.Fatalf("double Return succeeded")
	}
	if err := l.Discard(); err == nil {
		t.Fatalf("Discard after Return succeeded")
	}
	if st := p.Stats(); st.Live != 1 || st.Idle != 1 {
		t.Fatalf("stats after double settle = %+v, want live=idle=1", st)
	}
}

// TestPoolDrain checks shutdown closes and drops every warm item without
// touching outstanding leases.
func TestPoolDrain(t *testing.T) {
	closeHook, closes, violations := countingClose(t)
	p, _ := newTestPool(t, Config[*testItem]{Close: closeHook})
	ctx := context.Background()
	var leases []*Lease[*testItem]
	for i := 0; i < 4; i++ {
		l, err := p.Checkout(ctx, keyA)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases[:2] {
		if err := l.Return(); err != nil {
			t.Fatal(err)
		}
	}
	if drained := p.Drain(); drained != 2 {
		t.Fatalf("Drain dropped %d items, want 2", drained)
	}
	if closes.Load() != 2 || violations.Load() != 0 {
		t.Fatalf("drain closed %d items (violations %d), want 2", closes.Load(), violations.Load())
	}
	st := p.Stats()
	if st.Idle != 0 || st.Live != 2 {
		t.Fatalf("stats after drain = %+v, want idle 0, live 2 (outstanding)", st)
	}
	for _, l := range leases[2:] {
		if err := l.Discard(); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("live = %d after settling all leases, want 0", st.Live)
	}
	// Outstanding leases settled via Discard close too: 2 drained + 2
	// discarded = every build closed exactly once.
	if closes.Load() != 4 || violations.Load() != 0 {
		t.Fatalf("closes = %d (violations %d), want all 4 items closed once", closes.Load(), violations.Load())
	}
}

// TestPoolCloseHookDropPaths drives every path that removes an item from the
// pool's accounting outside the LRU policy and Drain — Reset-failure
// quarantine and explicit Discard — and asserts the Close hook fires exactly once per
// dropped item and never for items still pooled or leased.
func TestPoolCloseHookDropPaths(t *testing.T) {
	closeHook, closes, violations := countingClose(t)
	p, built := newTestPool(t, Config[*testItem]{Close: closeHook})
	ctx := context.Background()

	// One warm item stays pooled throughout.
	lw, _ := p.Checkout(ctx, keyA)
	if err := lw.Return(); err != nil {
		t.Fatal(err)
	}

	// Path 1: Reset failure quarantines the returning item. A key with no
	// warm items gives a cold build and leaves keyA's warm item pooled.
	coldKey := Key{Topology: "ieee30", Shape: "anystate"}
	ld, _ := p.Checkout(ctx, coldKey)
	dirty := ld.Item
	dirty.dirty = true
	if err := ld.Return(); err != nil {
		t.Fatal(err)
	}
	if dirty.closed.Load() != 1 {
		t.Fatalf("reset-rejected item closed %d times, want 1", dirty.closed.Load())
	}

	// Path 2: explicit Discard.
	lp, _ := p.Checkout(ctx, coldKey)
	poisoned := lp.Item
	if err := lp.Discard(); err != nil {
		t.Fatal(err)
	}
	if poisoned.closed.Load() != 1 {
		t.Fatalf("discarded item closed %d times, want 1", poisoned.closed.Load())
	}

	// The one item still warm was never closed; Drain closes it.
	if closes.Load() != 2 || violations.Load() != 0 {
		t.Fatalf("closes = %d (violations %d), want 2 before drain", closes.Load(), violations.Load())
	}
	if drained := p.Drain(); drained != 1 {
		t.Fatalf("Drain dropped %d, want 1", drained)
	}
	if closes.Load() != int64(built.Load()) || violations.Load() != 0 {
		t.Fatalf("closes = %d, builds = %d (violations %d): every build must close exactly once", closes.Load(), built.Load(), violations.Load())
	}
	if st := p.Stats(); st.Live != 0 || st.Idle != 0 {
		t.Fatalf("pool not empty after drop-path sweep: %+v", st)
	}
}

// TestPoolConcurrentLoad hammers checkout/reset/return from many goroutines
// under -race, asserting lease exclusivity (no item leased twice at once),
// conservation (live returns to zero, every dropped item closed exactly
// once) and counter consistency under the live bound.
func TestPoolConcurrentLoad(t *testing.T) {
	closeHook, closes, closeViolations := countingClose(t)
	p, built := newTestPool(t, Config[*testItem]{
		MaxLive: 8,
		Close:   closeHook,
	})
	keys := []Key{
		{Topology: "ieee14", Shape: "a"},
		{Topology: "ieee14", Shape: "b"},
		{Topology: "ieee57", Shape: "a"},
	}
	const (
		workers = 16
		iters   = 300
	)
	var (
		wg        sync.WaitGroup
		checkouts atomic.Uint64
		sheds     atomic.Uint64
		failures  atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(w+i)%len(keys)]
				l, err := p.Checkout(context.Background(), key)
				if errors.Is(err, ErrExhausted) {
					sheds.Add(1)
					continue
				}
				if err != nil {
					failures.Add(1)
					return
				}
				checkouts.Add(1)
				if !l.Item.inUse.CompareAndSwap(false, true) {
					failures.Add(1)
					return
				}
				if l.Item.key != key {
					failures.Add(1)
					return
				}
				l.Item.inUse.Store(false)
				if i%7 == 3 {
					err = l.Discard()
				} else {
					err = l.Return()
				}
				if err != nil {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d lease invariant violations under load", failures.Load())
	}
	st := p.Stats()
	if st.Live != st.Idle {
		t.Fatalf("outstanding leases after drain-down: %+v", st)
	}
	if st.Hits+st.Misses != checkouts.Load() {
		t.Fatalf("hits+misses = %d, want %d checkouts", st.Hits+st.Misses, checkouts.Load())
	}
	// Every checkout settles through Return or Discard (evictions drop
	// pooled items, not settlements).
	if got := st.Returns + st.Discards; got != checkouts.Load() {
		t.Fatalf("settlements %d ≠ checkouts %d (stats %+v)", got, checkouts.Load(), st)
	}
	if st.Idle > 8 {
		t.Fatalf("live bound breached: %+v", st)
	}
	// Builds conserve: every built item is either still idle or was closed
	// (evicted, quarantined, or discarded). Drain closes the stragglers.
	p.Drain()
	if closeViolations.Load() != 0 {
		t.Fatalf("%d close violations (double close or close-while-leased)", closeViolations.Load())
	}
	if closes.Load() != built.Load() {
		t.Fatalf("closes = %d, builds = %d: dropped items leaked past the Close hook", closes.Load(), built.Load())
	}
	t.Logf("pool load: %d checkouts, %d sheds, %d builds/closes, stats %+v", checkouts.Load(), sheds.Load(), built.Load(), st)
}

// TestPoolPoisonedEncoderViaInjectedFault is the end-to-end quarantine path:
// a pooled warm SMT solver is poisoned by an injected fault mid-check, the
// service-side rule discards it, and the replacement encoder — never the
// poisoned instance — decides the query correctly.
func TestPoolPoisonedEncoderViaInjectedFault(t *testing.T) {
	// One "request" against a warm encoder: a scoped conflict-rich unsat
	// query, mimicking the service's push/assert/check/pop cycle.
	assertPigeonhole := func(s *smt.Solver) {
		const n = 6
		vs := make([][]smt.BoolVar, n+1)
		for p := range vs {
			vs[p] = make([]smt.BoolVar, n)
			for h := range vs[p] {
				vs[p][h] = s.BoolVar(fmt.Sprintf("p%d_h%d", p, h))
			}
		}
		for p := 0; p <= n; p++ {
			fs := make([]smt.Formula, n)
			for h := 0; h < n; h++ {
				fs[h] = smt.B(vs[p][h])
			}
			s.Assert(smt.Or(fs...))
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.Assert(smt.Or(smt.Not(smt.B(vs[p1][h])), smt.Not(smt.B(vs[p2][h]))))
				}
			}
		}
	}
	request := func(s *smt.Solver, inj *faultinject.Injector) (*smt.Result, error) {
		s.Push()
		defer s.Pop()
		assertPigeonhole(s)
		s.SetInterrupter(inj)
		defer s.SetInterrupter(nil)
		return s.Check()
	}
	p, err := New(Config[*smt.Solver]{
		New: func(_ context.Context, _ Key) (*smt.Solver, error) {
			return smt.NewSolver(smt.DefaultOptions()), nil
		},
		Reset: func(s *smt.Solver) error {
			if s.NumScopes() != 1 {
				return fmt.Errorf("scope stack not unwound: %d", s.NumScopes())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Topology: "tiny", Shape: "pigeonhole"}

	// Warm the pool with a healthy solve.
	l, err := p.Checkout(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	res, err := request(l.Item, faultinject.NewInjector(faultinject.Decision{}))
	if err != nil || res.Status != smt.Unsat {
		t.Fatalf("warmup check = %v/%v, want unsat", res, err)
	}
	if err := l.Return(); err != nil {
		t.Fatal(err)
	}

	// Poison the warm encoder mid-check via the injected fault.
	l, err = p.Checkout(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Warm() {
		t.Fatalf("expected the warm encoder")
	}
	poisoned := l.Item
	inj := faultinject.NewInjector(faultinject.Decision{Kind: faultinject.Poison, AfterPolls: 3})
	res, err = request(poisoned, inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smt.Unknown || !errors.Is(res.Why, faultinject.ErrPoisoned) {
		t.Fatalf("poisoned check = %v (why %v), want Unknown/ErrPoisoned", res.Status, res.Why)
	}
	if !inj.Fired() {
		t.Fatalf("injector never fired")
	}
	// Service rule: Unknown ⇒ quarantine, never Return.
	if err := l.Discard(); err != nil {
		t.Fatal(err)
	}

	// The replacement must be a different instance and decide correctly.
	l, err = p.Checkout(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if l.Warm() || l.Item == poisoned {
		t.Fatalf("poisoned encoder reused after quarantine")
	}
	res, err = request(l.Item, faultinject.NewInjector(faultinject.Decision{}))
	if err != nil || res.Status != smt.Unsat {
		t.Fatalf("replacement check = %v/%v, want unsat", res, err)
	}
	if err := l.Return(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", st.Discards)
	}
}
