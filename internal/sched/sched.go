// Package sched is the analytics service's work-unit scheduler: a fixed set
// of worker goroutines draining schedulable units with deficit-round-robin
// (DRR) fairness across flows.
//
// The service decomposes each request into units on one Flow — a verify is a
// single unit, a sweep one unit per encoder-compatibility group — and the
// scheduler interleaves units from different flows instead of letting one
// large request monopolize the solver workers. Costs express relative unit
// sizes (a sweep group unit costs its item count); weights express a flow's
// service share per round.
//
// DRR, concretely: active flows (those with queued units) are visited in a
// round-robin ring. Each visit that cannot serve the flow's head unit earns
// the flow weight units of deficit credit; a flow whose credit covers its
// head unit's cost is served and charged. A flow's credit resets when its
// queue empties, so idle flows accumulate no priority. Every full pass
// strictly grows each unserved flow's credit, so a pick terminates in at
// most max-unit-cost passes and no flow starves.
//
// The scheduler is also the admission queue: a flow is waiting from its
// first Submit until its first unit starts, and Config bounds how many flows
// may wait and for how long.
//
// Where units run: a submitted unit runs on a worker. A flow's one unit
// passed to Flow.Do runs on the calling goroutine instead, but only when the
// scheduler is open, no unit is queued anywhere and fewer than Workers units
// are running; otherwise Do queues it like Submit. Such an inline unit
// counts as running, and workers pick a unit only while fewer than Workers
// run, so the concurrency bound covers inline and worker units together.
// An inline unit never overtakes a queued one, so DRR still orders every
// unit that had to queue.
//
// Units run to completion; the scheduler never preempts.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close: the scheduler is draining and
// accepts no new units.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrAborted is returned by Submit on a flow that was Abort()ed, and by
// Wait on a flow whose Abort won.
var ErrAborted = errors.New("sched: flow aborted")

// ErrQueueFull is returned by a flow's first Submit when MaxQueue flows are
// already waiting. The flow is not admitted and nothing of it runs.
var ErrQueueFull = errors.New("sched: queue full")

// ErrQueueWait is returned by Wait on a flow the scheduler aborted because
// none of its units started within QueueWait.
var ErrQueueWait = errors.New("sched: no unit started within the queue wait")

// Config parameterizes a Scheduler. The zero value is usable; defaults are
// applied by New.
type Config struct {
	// Workers is the number of goroutines draining units (default 4). It is
	// the scheduler-layer concurrency bound: at most Workers units execute at
	// once, counting the units Flow.Do runs on their callers.
	Workers int

	// MaxQueue bounds the waiting flows: those admitted with no unit
	// started. A first Submit past it fails with ErrQueueFull. Zero is
	// unbounded.
	MaxQueue int

	// QueueWait bounds how long an admitted flow may wait for its first
	// unit to start; past it the scheduler aborts the flow and Wait reports
	// ErrQueueWait. Zero waits forever.
	QueueWait time.Duration
}

// Stats snapshots scheduler counters and gauges.
type Stats struct {
	// FlowsOpened counts NewFlow calls.
	FlowsOpened uint64
	// UnitsRun counts units run to completion.
	UnitsRun uint64
	// UnitsInline counts the units of UnitsRun that Flow.Do ran on its
	// caller.
	UnitsInline uint64
	// UnitsAborted counts queued units removed before running, by
	// Flow.Abort or by the queue wait.
	UnitsAborted uint64
	// Waiting, Queued and Running are gauges: flows admitted with no unit
	// started (what MaxQueue bounds), units waiting in flow queues, and
	// units currently executing.
	Waiting int
	Queued  int
	Running int
}

// unit is one schedulable piece of work.
type unit struct {
	cost int
	fn   func()
}

// Flow is one request's ordered stream of units, the unit of DRR fairness.
// Flows are created with Scheduler.NewFlow and need no explicit teardown: a
// flow occupies scheduler state only while it has queued units.
type Flow struct {
	s      *Scheduler
	weight int

	// All fields below are guarded by s.mu.
	queue    []unit
	deficit  int
	pending  int // queued + running units
	inActive bool
	waiting  bool // admitted, no unit started yet
	started  bool
	err      error       // why the flow was aborted (nil: not aborted)
	expiry   *time.Timer // the queue-wait abort, armed while waiting
}

// Scheduler drains flows' units with a fixed worker set. Construct with New;
// all methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	active []*Flow // flows with queued units, round-robin ring
	next   int     // ring position of the next visit
	closed bool

	stats Stats // counters and gauges, all maintained under mu
	wg    sync.WaitGroup
}

// New constructs a Scheduler and starts its workers.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Scheduler{cfg: cfg}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// NewFlow opens a flow with the given service weight (values below 1 are
// clamped to 1). Weight multiplies the flow's per-round deficit credit: a
// weight-3 flow drains roughly three times faster than a weight-1 flow under
// contention.
func (s *Scheduler) NewFlow(weight int) *Flow {
	if weight < 1 {
		weight = 1
	}
	f := &Flow{s: s, weight: weight}
	s.mu.Lock()
	s.stats.FlowsOpened++
	s.mu.Unlock()
	return f
}

// Close stops the scheduler: units already queued still run (the shutdown
// drains, it never abandons accepted work), Submit refuses new units with
// ErrClosed, Do starts none inline, and Close returns once every worker has
// exited and no inline unit is running.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for s.stats.Running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Stats snapshots the scheduler counters and gauges.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Submit enqueues one unit on the flow. Cost expresses the unit's relative
// size for DRR accounting (values below 1 are clamped to 1); fn runs to
// completion on a scheduler worker. Submit never blocks on the workers. The
// flow's first Submit admits it: it fails with ErrQueueFull when MaxQueue
// flows are already waiting, and arms the QueueWait abort otherwise.
func (f *Flow) Submit(cost int, fn func()) error {
	if fn == nil {
		return errors.New("sched: nil unit")
	}
	if cost < 1 {
		cost = 1
	}
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if f.err != nil {
		return ErrAborted
	}
	if !f.waiting && !f.started {
		if s.cfg.MaxQueue > 0 && s.stats.Waiting >= s.cfg.MaxQueue {
			return ErrQueueFull
		}
		f.waiting = true
		s.stats.Waiting++
		if s.cfg.QueueWait > 0 {
			f.expiry = time.AfterFunc(s.cfg.QueueWait, func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				f.abortLocked(ErrQueueWait)
			})
		}
	}
	f.queue = append(f.queue, unit{cost: cost, fn: fn})
	f.pending++
	s.stats.Queued++
	if !f.inActive {
		f.inActive = true
		s.active = append(s.active, f)
	}
	s.cond.Broadcast()
	return nil
}

// Abort cancels the flow if and only if none of its units has started:
// queued units are removed and the flow refuses further Submits. It reports
// whether the abort won; false means at least one unit is running or done
// and the caller must Wait for the flow instead. The service uses it to
// drop a request whose client went away while it was queued.
func (f *Flow) Abort() bool {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return f.abortLocked(ErrAborted)
}

// abortLocked is Abort with s.mu held; err is what Wait will report. An
// already-aborted flow keeps its first cause.
func (f *Flow) abortLocked(err error) bool {
	s := f.s
	if f.started {
		return false
	}
	if f.err == nil {
		f.err = err
	}
	f.endWaitLocked()
	n := len(f.queue)
	f.queue = nil
	f.pending -= n
	s.stats.Queued -= n
	s.stats.UnitsAborted += uint64(n)
	if f.inActive {
		s.removeActiveLocked(f)
	}
	s.cond.Broadcast()
	return true
}

// Wait blocks until every submitted unit of the flow has finished (or was
// removed by an abort). It is a passive wait: the calling goroutine runs no
// unit, its own or another flow's, while scheduler workers do the work. It
// returns nil when the units ran, ErrAborted after a winning Abort and
// ErrQueueWait when no unit started within QueueWait.
func (f *Flow) Wait() error {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for f.pending > 0 {
		s.cond.Wait()
	}
	return f.err
}

// WaitContext is Wait for a caller that may go away: cancelling ctx while
// none of the flow's units has started aborts the flow, and WaitContext
// then reports ErrAborted. A ctx that passes its deadline aborts nothing;
// the units run and see the expired ctx themselves.
func (f *Flow) WaitContext(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		if errors.Is(ctx.Err(), context.Canceled) {
			f.Abort() // loses, harmlessly, once a unit has started
		}
	})
	defer stop()
	return f.Wait()
}

// Do runs fn as one unit of the flow and waits for it. When the scheduler
// is open, no unit is queued and fewer than Workers units are running, fn
// runs at once on the calling goroutine: the flow is admitted and started
// without ever waiting, so no queue-wait timer or cancellation hook is
// armed. Otherwise Do is Submit followed by WaitContext(ctx), and returns
// what they return.
func (f *Flow) Do(ctx context.Context, cost int, fn func()) error {
	if fn == nil {
		return errors.New("sched: nil unit")
	}
	if f.startInline() {
		defer f.finishInline()
		fn()
		return nil
	}
	if err := f.Submit(cost, fn); err != nil {
		return err
	}
	return f.WaitContext(ctx)
}

// startInline claims a worker slot for a unit the caller runs itself, when
// the scheduler is open, the flow is not aborted, nothing is queued and a
// slot is free.
func (f *Flow) startInline() bool {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || f.err != nil || s.stats.Queued > 0 || s.stats.Running >= s.cfg.Workers {
		return false
	}
	f.pending++
	f.started = true
	s.stats.Running++
	s.stats.UnitsInline++
	return true
}

// finishInline retires an inline unit. Nobody waits on its flow, but a
// worker held back by the slot it occupied may now pick a queued unit, and
// Close may be waiting for the unit.
func (f *Flow) finishInline() {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Running--
	s.stats.UnitsRun++
	f.pending--
	if s.stats.Queued > 0 || s.closed {
		s.cond.Broadcast()
	}
}

// worker is one scheduler goroutine: pick a unit by DRR, run it, repeat. It
// exits on Close once no unit is queued; a unit still queued behind an
// inline one keeps it waiting for the slot.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		f, u, ok := s.pickLocked()
		if !ok {
			if s.closed && s.stats.Queued == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		s.startLocked(f)
		s.mu.Unlock()

		u.fn()

		s.mu.Lock()
		s.finishLocked(f)
	}
}

// pickLocked selects the next unit by deficit round-robin. Each visit to a
// flow whose credit cannot cover its head unit earns it weight;
// every full pass strictly grows all unserved credits, so the loop
// terminates in at most max-head-cost passes. Serving does not advance the
// ring position: a flow with remaining credit is served again next pick,
// which is DRR's per-turn burst. It picks nothing while Workers units,
// inline ones included, are running.
func (s *Scheduler) pickLocked() (*Flow, unit, bool) {
	if s.stats.Queued == 0 || s.stats.Running >= s.cfg.Workers {
		return nil, unit{}, false
	}
	for {
		for range s.active {
			if s.next >= len(s.active) {
				s.next = 0
			}
			f := s.active[s.next]
			if f.deficit >= f.queue[0].cost {
				u := f.queue[0]
				f.queue = f.queue[1:]
				f.deficit -= u.cost
				if len(f.queue) == 0 {
					s.removeActiveLocked(f)
				}
				return f, u, true
			}
			f.deficit += f.weight
			s.next++
		}
	}
}

// removeActiveLocked takes a flow out of the ring (its queue emptied or it
// aborted) and resets its deficit so it cannot bank credit while idle.
func (s *Scheduler) removeActiveLocked(f *Flow) {
	for i, cand := range s.active {
		if cand == f {
			s.active = append(s.active[:i], s.active[i+1:]...)
			if s.next > i {
				s.next--
			}
			break
		}
	}
	f.inActive = false
	f.deficit = 0
}

// startLocked transitions one popped unit into running state; the flow's
// first start ends its wait.
func (s *Scheduler) startLocked(f *Flow) {
	s.stats.Queued--
	s.stats.Running++
	f.started = true
	f.endWaitLocked()
}

// endWaitLocked takes a waiting flow out of the Waiting gauge and disarms
// its queue-wait abort.
func (f *Flow) endWaitLocked() {
	if !f.waiting {
		return
	}
	f.waiting = false
	f.s.stats.Waiting--
	if f.expiry != nil {
		f.expiry.Stop()
	}
}

// finishLocked retires one completed unit and wakes waiters when the flow
// settles.
func (s *Scheduler) finishLocked(f *Flow) {
	s.stats.Running--
	s.stats.UnitsRun++
	f.pending--
	if f.pending == 0 {
		s.cond.Broadcast()
	}
}
