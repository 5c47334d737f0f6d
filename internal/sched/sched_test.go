package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate occupies the scheduler's single worker so tests can stage queues with
// a deterministic ring state, then release the worker to observe pick order.
type gate struct {
	flow    *Flow
	release chan struct{}
}

func openGate(t *testing.T, s *Scheduler) *gate {
	t.Helper()
	g := &gate{flow: s.NewFlow(1), release: make(chan struct{})}
	started := make(chan struct{})
	if err := g.flow.Submit(1, func() {
		close(started)
		<-g.release
	}); err != nil {
		t.Fatalf("gate submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("gate unit never started")
	}
	return g
}

// order collects unit completion labels under a mutex.
type order struct {
	mu  sync.Mutex
	got []string
}

func (o *order) add(label string) func() {
	return func() {
		o.mu.Lock()
		o.got = append(o.got, label)
		o.mu.Unlock()
	}
}

func TestSchedEqualWeightsAlternate(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := openGate(t, s)

	var o order
	a := s.NewFlow(1)
	b := s.NewFlow(1)
	for i := 0; i < 3; i++ {
		if err := a.Submit(1, o.add("a")); err != nil {
			t.Fatal(err)
		}
		if err := b.Submit(1, o.add("b")); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	a.Wait()
	b.Wait()

	want := []string{"a", "b", "a", "b", "a", "b"}
	if fmt.Sprint(o.got) != fmt.Sprint(want) {
		t.Fatalf("equal-weight order = %v, want %v", o.got, want)
	}
}

func TestSchedWeightsProportional(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := openGate(t, s)

	var o order
	a := s.NewFlow(1)
	b := s.NewFlow(3)
	for i := 0; i < 8; i++ {
		if err := a.Submit(1, o.add("a")); err != nil {
			t.Fatal(err)
		}
		if err := b.Submit(1, o.add("b")); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	a.Wait()
	b.Wait()

	// Among the first half of completions the weight-3 flow must have been
	// served strictly more often than the weight-1 flow.
	na, nb := 0, 0
	for _, l := range o.got[:8] {
		if l == "a" {
			na++
		} else {
			nb++
		}
	}
	if nb <= na {
		t.Fatalf("first 8 served: a=%d b=%d (order %v); weight-3 flow should dominate", na, nb, o.got)
	}
}

func TestSchedBigUnitWaitsForCredit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := openGate(t, s)

	var o order
	big := s.NewFlow(1)
	small := s.NewFlow(1)
	if err := big.Submit(10, o.add("big")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := small.Submit(1, o.add("small")); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	big.Wait()
	small.Wait()

	// The cost-10 unit must accumulate ten rounds of credit, so every
	// cost-1 unit of the competing flow lands first: small requests are not
	// blocked behind a large one.
	if o.got[len(o.got)-1] != "big" {
		t.Fatalf("big unit did not run last: %v", o.got)
	}
}

func TestSchedAbortBeforeStart(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := openGate(t, s)

	ran := atomic.Int32{}
	f := s.NewFlow(1)
	for i := 0; i < 3; i++ {
		if err := f.Submit(1, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Abort() {
		t.Fatal("abort of never-started flow must win")
	}
	if err := f.Submit(1, func() {}); err != ErrAborted {
		t.Fatalf("submit after abort = %v, want ErrAborted", err)
	}
	if err := f.Wait(); err != ErrAborted { // must return at once: pending was rolled back
		t.Fatalf("Wait after abort = %v, want ErrAborted", err)
	}
	close(g.release)
	g.flow.Wait()
	if n := ran.Load(); n != 0 {
		t.Fatalf("aborted units ran %d times", n)
	}
	if st := s.Stats(); st.UnitsAborted != 3 {
		t.Fatalf("UnitsAborted = %d, want 3", st.UnitsAborted)
	}
}

func TestSchedAbortAfterStartLoses(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	f := s.NewFlow(1)
	started, release := make(chan struct{}), make(chan struct{})
	if err := f.Submit(1, func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if f.Abort() {
		t.Fatal("abort after start must lose")
	}
	close(release)
	if err := f.Wait(); err != nil {
		t.Fatalf("Wait on a flow that ran = %v", err)
	}
}

// TestSchedQueueBound fills MaxQueue with waiting flows behind a held
// worker: the next flow's first Submit is refused, later Submits of an
// admitted flow are not, and a slot frees as soon as a waiting flow starts.
func TestSchedQueueBound(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 2})
	defer s.Close()
	g := openGate(t, s)

	a, b, c := s.NewFlow(1), s.NewFlow(1), s.NewFlow(1)
	for _, f := range []*Flow{a, b} {
		if err := f.Submit(1, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Submit(1, func() {}); err != nil {
		t.Fatalf("second submit of an admitted flow = %v", err)
	}
	if st := s.Stats(); st.Waiting != 2 || st.Queued != 3 {
		t.Fatalf("stats = %+v, want 2 waiting flows and 3 queued units", st)
	}
	if err := c.Submit(1, func() {}); err != ErrQueueFull {
		t.Fatalf("submit past MaxQueue = %v, want ErrQueueFull", err)
	}
	close(g.release)
	for _, f := range []*Flow{a, b} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Submit(1, func() {}); err != nil {
		t.Fatalf("submit after the queue drained = %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Waiting != 0 || st.UnitsRun != 5 {
		t.Fatalf("stats after the drain = %+v, want nothing waiting and 5 units run", st)
	}
}

// TestSchedQueueWait checks a flow that waits out QueueWait behind a held
// worker is aborted before any unit runs, and that a flow started in time
// is never aborted however long its units take.
func TestSchedQueueWait(t *testing.T) {
	s := New(Config{Workers: 1, QueueWait: 20 * time.Millisecond})
	defer s.Close()
	g := openGate(t, s)

	ran := atomic.Int32{}
	f := s.NewFlow(1)
	for i := 0; i < 2; i++ {
		if err := f.Submit(1, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Wait(); err != ErrQueueWait {
		t.Fatalf("Wait past the queue wait = %v, want ErrQueueWait", err)
	}
	if err := f.Submit(1, func() {}); err != ErrAborted {
		t.Fatalf("submit after the queue-wait abort = %v, want ErrAborted", err)
	}
	time.Sleep(40 * time.Millisecond) // the gate outlives its own queue wait
	close(g.release)
	if err := g.flow.Wait(); err != nil {
		t.Fatalf("a started flow was aborted: %v", err)
	}
	if st := s.Stats(); ran.Load() != 0 || st.UnitsAborted != 2 || st.Waiting != 0 {
		t.Fatalf("ran %d, stats %+v; want the two units aborted unrun", ran.Load(), st)
	}
}

func TestSchedCloseDrainsQueued(t *testing.T) {
	s := New(Config{Workers: 2})
	ran := atomic.Int32{}
	f := s.NewFlow(1)
	for i := 0; i < 20; i++ {
		if err := f.Submit(1, func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if n := ran.Load(); n != 20 {
		t.Fatalf("close drained %d/20 units", n)
	}
	if err := f.Submit(1, func() {}); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Queued != 0 || st.Running != 0 || st.UnitsRun != 20 {
		t.Fatalf("stats after close = %+v", st)
	}
}

// TestSchedStressExactlyOnce hammers the scheduler from many goroutines
// (submit, wait, abort races) and checks every unit ran exactly once
// and the ledger settles. Run under -race in CI.
func TestSchedStressExactlyOnce(t *testing.T) {
	s := New(Config{Workers: 4})

	const flows = 24
	const unitsPer = 16
	counts := make([]atomic.Int32, flows*unitsPer)
	var submitted, aborted atomic.Int64

	var wg sync.WaitGroup
	for fi := 0; fi < flows; fi++ {
		wg.Add(1)
		go func(fi int) {
			defer wg.Done()
			f := s.NewFlow(1 + fi%3)
			for u := 0; u < unitsPer; u++ {
				idx := fi*unitsPer + u
				if err := f.Submit(1+u%4, func() { counts[idx].Add(1) }); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted.Add(1)
			}
			switch fi % 3 {
			case 0, 1:
				f.Wait()
			case 2:
				// Race an abort against the workers; either outcome must
				// keep the exactly-once ledger.
				if f.Abort() {
					aborted.Add(int64(unitsPer))
				} else {
					f.Wait()
				}
			}
		}(fi)
	}
	wg.Wait()
	s.Close()

	var ran int64
	for i := range counts {
		n := int64(counts[i].Load())
		if n > 1 {
			t.Fatalf("unit %d ran %d times", i, n)
		}
		ran += n
	}
	st := s.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("gauges nonzero after close: %+v", st)
	}
	if got, want := int64(st.UnitsRun), submitted.Load()-int64(st.UnitsAborted); got != want {
		t.Fatalf("UnitsRun = %d, want submitted-aborted = %d", got, want)
	}
	if ran != int64(st.UnitsRun) {
		t.Fatalf("units actually run %d != UnitsRun %d", ran, st.UnitsRun)
	}
	// Abort removes whole queues only when it wins before any start; our
	// per-flow accounting allows partial overlap with worker pops, so only
	// the aggregate is asserted: aborted counter is an upper bound recorded
	// by flows that won their abort race.
	if int64(st.UnitsAborted) > aborted.Load() {
		t.Fatalf("UnitsAborted %d exceeds winning aborts %d", st.UnitsAborted, aborted.Load())
	}
}

// TestSchedStressAdmission races the queue bound and the queue-wait timer
// against the workers: every admitted flow either runs all of its units or
// none (Wait says which), refused flows run nothing, and the gauges settle
// at zero. Run under -race in CI.
func TestSchedStressAdmission(t *testing.T) {
	s := New(Config{Workers: 2, MaxQueue: 8, QueueWait: time.Millisecond})

	const flows = 48
	const unitsPer = 4
	var submitted, refused, expired atomic.Int64
	var wg sync.WaitGroup
	for fi := 0; fi < flows; fi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := s.NewFlow(1)
			var ran atomic.Int32
			n := 0
			for u := 0; u < unitsPer; u++ {
				err := f.Submit(1, func() {
					time.Sleep(100 * time.Microsecond)
					ran.Add(1)
				})
				if err != nil {
					if u == 0 && err != ErrQueueFull {
						t.Errorf("first submit = %v, want nil or ErrQueueFull", err)
					}
					break
				}
				n++
			}
			submitted.Add(int64(n))
			switch err := f.Wait(); {
			case n == 0:
				refused.Add(1)
			case err == ErrQueueWait:
				expired.Add(1)
				if ran.Load() != 0 {
					t.Errorf("expired flow ran %d units", ran.Load())
				}
			case err != nil:
				t.Errorf("Wait = %v", err)
			case int(ran.Load()) != n:
				t.Errorf("flow ran %d of %d units", ran.Load(), n)
			}
		}()
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if st.Waiting != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("gauges nonzero after close: %+v", st)
	}
	if got := int64(st.UnitsRun + st.UnitsAborted); got != submitted.Load() {
		t.Fatalf("UnitsRun+UnitsAborted = %d, want the %d submitted", got, submitted.Load())
	}
	t.Logf("%d flows refused, %d expired in the queue", refused.Load(), expired.Load())
}

// eventually polls cond until it holds, failing the test after five
// seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdInline starts a Do on its own goroutine whose unit blocks until the
// returned release is called; it returns once the unit is running.
func holdInline(t *testing.T, s *Scheduler) (release func(), done <-chan error) {
	t.Helper()
	started, rel, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		out <- s.NewFlow(1).Do(context.Background(), 1, func() {
			close(started)
			<-rel
		})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("held unit never started")
	}
	return func() { close(rel) }, out
}

// TestSchedInlineRunsOnCaller checks Do on an idle scheduler runs its unit
// on the calling goroutine: a panic in the unit reaches the caller, the
// flow never waits (a 1 ns queue wait aborts nothing), and the slot is
// released with the unit counted in UnitsRun and UnitsInline.
func TestSchedInlineRunsOnCaller(t *testing.T) {
	s := New(Config{Workers: 1, QueueWait: time.Nanosecond})
	defer s.Close()

	var during Stats
	err := s.NewFlow(1).Do(context.Background(), 1, func() {
		time.Sleep(time.Millisecond) // outlives the queue wait
		during = s.Stats()
	})
	if err != nil {
		t.Fatalf("Do on an idle scheduler = %v", err)
	}
	if during.Running != 1 || during.Waiting != 0 || during.Queued != 0 {
		t.Fatalf("stats inside the inline unit = %+v, want it running and nothing waiting", during)
	}

	func() {
		defer func() {
			if r := recover(); r != "unit panic" {
				t.Fatalf("recovered %v, want the unit's panic on the caller", r)
			}
		}()
		_ = s.NewFlow(1).Do(context.Background(), 1, func() { panic("unit panic") })
	}()
	if st := s.Stats(); st.UnitsRun != 2 || st.UnitsInline != 2 || st.Running != 0 || st.UnitsAborted != 0 {
		t.Fatalf("stats = %+v, want two inline units run and the slot free", st)
	}
}

// TestSchedInlineBoundHoldsDo holds the only slot with an inline unit: a
// second Do must queue, not run beside it, and a worker runs it once the
// slot frees.
func TestSchedInlineBoundHoldsDo(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	release, held := holdInline(t, s)

	var ran atomic.Bool
	second := make(chan error, 1)
	go func() { second <- s.NewFlow(1).Do(context.Background(), 1, func() { ran.Store(true) }) }()
	eventually(t, "the second Do to queue", func() bool { return s.Stats().Queued == 1 })
	if ran.Load() {
		t.Fatal("second unit ran beside the inline unit holding the only slot")
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil || !ran.Load() {
		t.Fatalf("second Do = %v (ran %v), want its unit run", err, ran.Load())
	}
	if st := s.Stats(); st.UnitsRun != 2 || st.UnitsInline != 1 {
		t.Fatalf("stats = %+v, want one inline and one worker unit", st)
	}
}

// TestSchedInlineBoundHoldsWorkers holds the only slot with an inline
// unit: an idle worker must not pick a submitted unit until the inline one
// finishes, and that finish must wake it.
func TestSchedInlineBoundHoldsWorkers(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	release, held := holdInline(t, s)

	var ran atomic.Bool
	f := s.NewFlow(1)
	if err := f.Submit(1, func() { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // an idle worker would pick it by now
	if ran.Load() {
		t.Fatal("a worker ran a unit beside the inline unit holding the only slot")
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- f.Wait() }()
	select {
	case err := <-waited:
		if err != nil || !ran.Load() {
			t.Fatalf("Wait = %v (ran %v)", err, ran.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the inline unit's finish never woke a worker for the queued unit")
	}
}

// TestSchedInlineNeverOvertakesQueued queues a unit behind an inline one
// and calls Do again the moment the inline unit returns: the queued unit
// must start first.
func TestSchedInlineNeverOvertakesQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	var o order
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		err := s.NewFlow(1).Do(context.Background(), 1, func() {
			close(started)
			<-release
		})
		if err == nil {
			err = s.NewFlow(1).Do(context.Background(), 1, o.add("do"))
		}
		done <- err
	}()
	<-started
	queued := s.NewFlow(1)
	if err := queued.Submit(1, o.add("queued")); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"queued", "do"}; fmt.Sprint(o.got) != fmt.Sprint(want) {
		t.Fatalf("start order = %v, want %v", o.got, want)
	}
}

// TestSchedInlineCloseWaits checks Close outlasts an inline unit, as it
// outlasts a worker's, and that Do starts nothing inline once closed.
func TestSchedInlineCloseWaits(t *testing.T) {
	s := New(Config{Workers: 2})
	release, held := holdInline(t, s)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	eventually(t, "Close to refuse new units", func() bool {
		return s.NewFlow(1).Submit(1, func() {}) == ErrClosed
	})
	select {
	case <-closed:
		t.Fatal("Close returned while an inline unit was running")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.NewFlow(1).Do(context.Background(), 1, func() { t.Error("unit ran after Close") }); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the inline unit finished")
	}
}

// TestSchedInlineStress races Do callers (some of whose clients go away)
// against multi-unit flows and aborts on a two-worker scheduler. Running
// units, inline ones included, never exceed Workers; every unit runs at
// most once; and UnitsRun+UnitsAborted equals the units handed in. Run
// under -race in CI.
func TestSchedInlineStress(t *testing.T) {
	const workers = 2
	s := New(Config{Workers: workers})

	var running, peak atomic.Int32
	var ran, handedIn atomic.Int64
	body := func() {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Microsecond)
		running.Add(-1)
		ran.Add(1)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := s.NewFlow(1)
				switch (g + i) % 4 {
				case 0, 1:
					handedIn.Add(1)
					if err := f.Do(context.Background(), 1, body); err != nil {
						t.Errorf("Do = %v", err)
					}
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					go cancel()
					handedIn.Add(1)
					if err := f.Do(ctx, 1, body); err != nil && err != ErrAborted {
						t.Errorf("Do with a cancelled client = %v", err)
					}
				case 3:
					for u := 0; u < 3; u++ {
						if err := f.Submit(1, body); err != nil {
							t.Errorf("Submit = %v", err)
						}
						handedIn.Add(1)
					}
					if !f.Abort() {
						f.Wait()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if p := peak.Load(); p > workers {
		t.Fatalf("%d units ran at once, bound is %d", p, workers)
	}
	if st.Queued != 0 || st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("gauges nonzero after close: %+v", st)
	}
	if got := int64(st.UnitsRun + st.UnitsAborted); got != handedIn.Load() {
		t.Fatalf("UnitsRun+UnitsAborted = %d, want the %d handed in", got, handedIn.Load())
	}
	if ran.Load() != int64(st.UnitsRun) {
		t.Fatalf("units actually run %d != UnitsRun %d", ran.Load(), st.UnitsRun)
	}
	if st.UnitsInline == 0 || st.UnitsInline >= st.UnitsRun {
		t.Fatalf("stats = %+v: want both inline and worker units", st)
	}
}
