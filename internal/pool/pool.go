// Package pool manages warm solver encoders for the long-running analytics
// service. A persistent SMT encoder is only worth keeping if reuse is safe
// after every way a check can end; this pool makes the lifecycle explicit:
//
//   - Checkout hands out an exclusive lease on a warm encoder for a
//     compatibility Key (grid topology × attack-model shape), building a
//     cold one on miss. Encoders are single-goroutine objects; the lease is
//     what guarantees exclusivity.
//   - Return puts a healthy encoder back on the warm list after the
//     configured Reset validation — a lease whose Reset fails is discarded,
//     not pooled.
//   - Discard quarantines a poisoned encoder: one whose check ended in
//     Unknown, a panic, budget exhaustion or mid-solve cancellation, and
//     whose internal SAT/simplex state therefore cannot be trusted. A
//     discarded item never re-enters the pool, under any path.
//
// Every path that removes an item from the pool's accounting — eviction,
// Reset-failure quarantine, Discard, Drain — invokes the optional
// Config.Close hook exactly once, outside the pool lock, so owners can
// release encoder resources deterministically.
//
// The pool bounds total live encoders (checked-out plus idle), which also
// bounds the idle ones; a key never holds more idle items than it had
// concurrent leases. A global recency order spans every key: a cold build
// at the bound evicts the global LRU idle item to make room, so idle
// encoders never lock a new key out; only when every live item is leased
// does Checkout fail fast with ErrExhausted, leaving the caller to decide
// between a throwaway build and shedding. All methods are safe for
// concurrent use.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Key identifies a warm-encoder compatibility class. Two checks may share an
// encoder only when both components match: Topology fingerprints the grid
// (buses, lines, admittances), Shape the attack-model structure lowered into
// the encoder (measurement configuration, knowledge, goals, resource
// bounds). Callers build the strings with whatever canonical fingerprint
// they like; the pool only compares them.
type Key struct {
	Topology string
	Shape    string
}

// ErrExhausted is returned by Checkout when the live-encoder bound is
// reached and every live item is leased (an idle item would have been
// evicted instead). The caller decides what to do; the pool never blocks.
var ErrExhausted = errors.New("pool: live-encoder limit reached")

// Config parameterizes a Pool.
type Config[T any] struct {
	// New builds a cold item for key. Called outside the pool lock (model
	// encoding is expensive); the context is the requesting check's.
	New func(ctx context.Context, key Key) (T, error)

	// Reset validates and readies an item as it returns to the warm list; a
	// non-nil error discards the item instead of pooling it. Typical
	// implementation: verify the solver's scope stack unwound to base.
	// Optional; nil skips validation.
	Reset func(item T) error

	// Close releases an item's resources. Invoked exactly once, outside the
	// pool lock, on every path that removes an item from the pool's
	// accounting: LRU eviction, Reset-failure quarantine, Discard, and
	// Drain. Never invoked for items still idle or leased. Optional; nil
	// skips the hook.
	Close func(item T)

	// MaxLive bounds live items — checked out plus idle — across all keys;
	// a cold build at the bound evicts the global LRU idle item. Default 64.
	MaxLive int
}

// Stats counts pool traffic. Snapshot via Pool.Stats.
type Stats struct {
	// Hits and Misses split Checkout calls by warm-list outcome. A miss
	// whose cold build fails still counts: Misses is "checkouts that went
	// to Config.New", and Hits + Misses - BuildFailures is the number of
	// leases actually handed out.
	Hits, Misses uint64
	// BuildFailures counts cold builds whose Config.New returned an error.
	BuildFailures uint64
	// Returns counts healthy returns that re-entered the warm list.
	Returns uint64
	// Discards counts quarantined items: explicit Discard calls plus
	// failed Resets.
	Discards uint64
	// ResetFailures counts returns rejected by the Reset hook (a subset of
	// Discards).
	ResetFailures uint64
	// Evictions counts idle items dropped by the LRU policy: a cold build
	// at the live bound evicts the global least recently used one.
	Evictions uint64
	// Live and Idle are current gauges: items outstanding or warm.
	Live, Idle int
}

// idleEntry is one warm item: a node in both its key's warm list and the
// pool-wide recency list (older/newer).
type idleEntry[T any] struct {
	item T
	key  Key

	older, newer *idleEntry[T]
}

// Pool is the warm-encoder pool. The zero value is not usable; construct
// with New.
type Pool[T any] struct {
	cfg Config[T]

	mu   sync.Mutex
	idle map[Key][]*idleEntry[T] // per key, oldest first
	lru  *idleEntry[T]           // least recently used (eviction end)
	mru  *idleEntry[T]           // most recently used
	live int

	idleCount int
	stats     Stats
}

// New constructs a pool.
func New[T any](cfg Config[T]) (*Pool[T], error) {
	if cfg.New == nil {
		return nil, fmt.Errorf("pool: Config.New is required")
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = 64
	}
	return &Pool[T]{cfg: cfg, idle: make(map[Key][]*idleEntry[T])}, nil
}

// leaseState tracks the one-way lease lifecycle.
type leaseState int32

const (
	leased leaseState = iota
	returned
	discarded
)

// Lease is an exclusive claim on one pooled item. Exactly one of Return or
// Discard must be called, once; the item must not be touched afterwards.
type Lease[T any] struct {
	// Item is the leased encoder.
	Item T

	key   Key
	warm  bool
	pool  *Pool[T]
	state leaseState
}

// Warm reports whether the lease was served from the warm list (false: the
// item was built cold for this lease).
func (l *Lease[T]) Warm() bool { return l.warm }

// Checkout leases an item for key: the most recently returned warm one when
// available, otherwise a cold build — at the live bound evicting the global
// LRU idle item first (its Close hook runs). It fails fast with ErrExhausted
// only when every live item is leased, and propagates Config.New errors
// (releasing the reserved slot).
func (p *Pool[T]) Checkout(ctx context.Context, key Key) (*Lease[T], error) {
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		e := list[len(list)-1] // the key's warmest item
		list[len(list)-1] = nil
		p.idle[key] = list[:len(list)-1]
		if len(list) == 1 {
			delete(p.idle, key)
		}
		p.unlink(e)
		p.idleCount--
		p.stats.Hits++
		p.mu.Unlock()
		return &Lease[T]{Item: e.item, key: key, warm: true, pool: p}, nil
	}
	var victim *idleEntry[T]
	if p.live >= p.cfg.MaxLive {
		if p.lru == nil {
			p.mu.Unlock()
			return nil, ErrExhausted
		}
		victim = p.evictLRULocked()
	}
	p.live++ // reserve the slot before the slow build
	p.stats.Misses++
	p.mu.Unlock()
	if victim != nil {
		p.close(victim.item)
	}

	item, err := p.cfg.New(ctx, key)
	if err != nil {
		p.mu.Lock()
		p.live--
		// Misses stays: the cold attempt happened. A rollback here would
		// let a concurrent Stats() observe the transient decrement and
		// report a negative-skewed miss count.
		p.stats.BuildFailures++
		p.mu.Unlock()
		return nil, err
	}
	return &Lease[T]{Item: item, key: key, pool: p}, nil
}

// Return puts the leased item back on its key's warm list after the Reset
// validation. A failed Reset quarantines the item instead (its Close hook
// runs) — Return never pools an item the Reset hook rejected, and never
// evicts another. It errors if the lease was already settled.
func (l *Lease[T]) Return() error {
	if err := l.settle(returned); err != nil {
		return err
	}
	p := l.pool
	if p.cfg.Reset != nil {
		if err := p.cfg.Reset(l.Item); err != nil {
			p.mu.Lock()
			p.live--
			p.stats.Discards++
			p.stats.ResetFailures++
			p.mu.Unlock()
			p.close(l.Item)
			return nil // the item is quarantined; the return itself succeeded
		}
	}
	e := &idleEntry[T]{item: l.Item, key: l.key}

	p.mu.Lock()
	p.idle[l.key] = append(p.idle[l.key], e)
	p.pushMRU(e)
	p.idleCount++
	p.stats.Returns++
	p.mu.Unlock()
	return nil
}

// evictLRULocked evicts the global least recently used idle entry, which is
// also the oldest on its key's warm list (both orders are return order), and
// charges the eviction counters.
func (p *Pool[T]) evictLRULocked() *idleEntry[T] {
	e := p.lru
	if list := p.idle[e.key]; len(list) == 1 {
		delete(p.idle, e.key)
	} else {
		copy(list, list[1:])
		list[len(list)-1] = nil
		p.idle[e.key] = list[:len(list)-1]
	}
	p.unlink(e)
	p.idleCount--
	p.live--
	p.stats.Evictions++
	return e
}

// pushMRU appends e at the most-recently-used end of the recency list.
func (p *Pool[T]) pushMRU(e *idleEntry[T]) {
	e.older = p.mru
	if p.mru != nil {
		p.mru.newer = e
	} else {
		p.lru = e
	}
	p.mru = e
}

// unlink detaches e from the recency list.
func (p *Pool[T]) unlink(e *idleEntry[T]) {
	if e.older != nil {
		e.older.newer = e.newer
	} else if p.lru == e {
		p.lru = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else if p.mru == e {
		p.mru = e.older
	}
	e.older, e.newer = nil, nil
}

// close invokes the Close hook, if configured. Callers must not hold the
// pool lock.
func (p *Pool[T]) close(item T) {
	if p.cfg.Close != nil {
		p.cfg.Close(item)
	}
}

// Discard quarantines the leased item: it is dropped from the pool's
// accounting (its Close hook runs) and will never be handed out again. Use
// it whenever a check ended in a way that could have torn encoder state —
// Unknown results, panics, budget exhaustion, mid-solve cancellation. It
// errors if the lease was already settled.
func (l *Lease[T]) Discard() error {
	if err := l.settle(discarded); err != nil {
		return err
	}
	p := l.pool
	p.mu.Lock()
	p.live--
	p.stats.Discards++
	p.mu.Unlock()
	p.close(l.Item)
	return nil
}

// settle transitions the lease out of the leased state exactly once.
func (l *Lease[T]) settle(to leaseState) error {
	if l.state != leased {
		return fmt.Errorf("pool: lease already settled (%d)", l.state)
	}
	l.state = to
	return nil
}

// Stats snapshots the pool counters and gauges.
func (p *Pool[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Live = p.live
	s.Idle = p.idleCount
	return s
}

// Drain empties every warm list, invoking the Close hook on each drained
// item, and reports how many were dropped. Outstanding leases are
// unaffected: their items settle through Return/Discard as usual. Used at
// shutdown.
func (p *Pool[T]) Drain() int {
	p.mu.Lock()
	var items []T
	for e := p.lru; e != nil; e = e.newer {
		items = append(items, e.item)
	}
	p.idle = make(map[Key][]*idleEntry[T])
	p.lru, p.mru = nil, nil
	p.live -= len(items)
	p.idleCount = 0
	p.mu.Unlock()

	for _, item := range items {
		p.close(item)
	}
	return len(items)
}
