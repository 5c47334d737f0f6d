package smt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// assertPigeonhole asserts PHP(holes+1, holes), a conflict-rich Boolean
// core for interruption tests.
func assertPigeonhole(s *Solver, holes int) {
	pigeons := holes + 1
	vs := make([][]BoolVar, pigeons)
	for p := range vs {
		vs[p] = make([]BoolVar, holes)
		for h := range vs[p] {
			vs[p][h] = s.BoolVar(fmt.Sprintf("p%d_h%d", p, h))
		}
	}
	for p := 0; p < pigeons; p++ {
		fs := make([]Formula, holes)
		for h := 0; h < holes; h++ {
			fs[h] = B(vs[p][h])
		}
		s.Assert(Or(fs...))
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.Assert(Or(Not(B(vs[p1][h])), Not(B(vs[p2][h]))))
			}
		}
	}
}

// assertChain asserts the pivot-hungry arithmetic chain x_{i+1} = x_i + 1
// with bounded endpoints, forcing simplex work at theory-check time.
func assertChain(s *Solver, n int) {
	xs := make([]RealVar, n)
	for i := range xs {
		xs[i] = s.RealVar(fmt.Sprintf("x%d", i))
	}
	for i := 0; i+1 < n; i++ {
		e := NewLinExpr().TermInt(1, xs[i+1]).TermInt(-1, xs[i])
		s.Assert(Eq(e, rat(1, 1)))
	}
	s.Assert(GE(NewLinExpr().TermInt(1, xs[0]), rat(0, 1)))
	s.Assert(LE(NewLinExpr().TermInt(1, xs[n-1]), rat(1000, 1)))
}

// checkNoGoroutineLeak asserts the goroutine count settles back to the
// pre-check level: cancellation is poll-based and must not spawn watchers.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// TestBudgetInterrupterPoints drives the deterministic fault-injection hook
// through every interruption point — mid-encoding, mid-CDCL, mid-simplex —
// asserting the Unknown contract, valid partial Stats, no goroutine leaks,
// and that the solver stays usable for a clean re-check afterwards.
func TestBudgetInterrupterPoints(t *testing.T) {
	cases := []struct {
		name          string
		point         string
		countdown     int64
		wantConflicts bool // interruption must land mid-search
	}{
		{"mid-encoding", PointEncode, 2, false},
		{"mid-cdcl", PointCDCL, 20, true},
		{"mid-simplex", PointSimplex, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := NewSolver(DefaultOptions())
			assertPigeonhole(s, 7)
			assertChain(s, 20)
			ci := NewCountdownInterrupter(tc.countdown)
			ci.Point = tc.point
			s.SetInterrupter(ci)

			res, err := s.Check()
			if err != nil {
				t.Fatalf("interruption must not be an error, got %v", err)
			}
			if res.Status != Unknown {
				t.Fatalf("Status = %v, want Unknown", res.Status)
			}
			if !errors.Is(res.Why, ErrInterrupted) {
				t.Fatalf("Why = %v, want ErrInterrupted", res.Why)
			}
			if !ci.Fired() {
				t.Fatalf("interrupter reports not fired after Unknown")
			}
			if res.Stats.BoolVars == 0 {
				t.Fatalf("partial Stats lost the model size: %+v", res.Stats)
			}
			if res.Stats.Duration <= 0 {
				t.Fatalf("partial Stats carry no duration: %+v", res.Stats)
			}
			if tc.wantConflicts && res.Stats.Conflicts == 0 {
				t.Fatalf("expected a mid-search interrupt, Stats = %+v", res.Stats)
			}
			if tc.point == PointEncode && res.Stats.Conflicts != 0 {
				t.Fatalf("encode-point interrupt reached the search: %+v", res.Stats)
			}
			checkNoGoroutineLeak(t, before)

			// The solver must remain usable: clear the hook and decide.
			s.SetInterrupter(nil)
			res, err = s.Check()
			if err != nil {
				t.Fatalf("re-check after interrupt: %v", err)
			}
			if res.Status != Unsat {
				t.Fatalf("re-check Status = %v, want Unsat (PHP is unsat)", res.Status)
			}
		})
	}
}

// TestBudgetExpiredContext checks an already-cancelled context aborts the
// check immediately — before the search — with the Unknown contract.
func TestBudgetExpiredContext(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSolver(DefaultOptions())
	assertPigeonhole(s, 8)
	assertChain(s, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	res, err := s.CheckContext(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancellation must not be an error, got %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("Status = %v, want Unknown", res.Status)
	}
	if !errors.Is(res.Why, context.Canceled) {
		t.Fatalf("Why = %v, want context.Canceled", res.Why)
	}
	if elapsed > time.Second {
		t.Fatalf("expired context took %s to abort, want well under 1s", elapsed)
	}
	checkNoGoroutineLeak(t, before)
}

// TestBudgetPivots checks the pivot budget surfaces as a pivots BudgetError
// with partial stats at the cap.
func TestBudgetPivots(t *testing.T) {
	s := NewSolver(DefaultOptions())
	assertChain(s, 40)
	s.SetBudget(Budget{MaxPivots: 2})
	res, err := s.Check()
	if err != nil {
		t.Fatalf("pivot exhaustion must not be an error, got %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("Status = %v, want Unknown", res.Status)
	}
	var be *BudgetError
	if !errors.As(res.Why, &be) || be.Resource != ResourcePivots {
		t.Fatalf("Why = %v, want pivots BudgetError", res.Why)
	}
	if res.Stats.Pivots < 2 {
		t.Fatalf("Stats.Pivots = %d, want >= budget 2", res.Stats.Pivots)
	}
}

// TestBudgetScaleSaturates exercises the escalation arithmetic: finite
// bounds grow, unlimited bounds stay unlimited, overflow saturates.
func TestBudgetScaleSaturates(t *testing.T) {
	b := Budget{MaxConflicts: 100, MaxPivots: 1 << 61}
	s := b.Scale(4)
	if s.MaxConflicts != 400 {
		t.Fatalf("MaxConflicts = %d, want 400", s.MaxConflicts)
	}
	if s.MaxPivots != 1<<63-1 {
		t.Fatalf("MaxPivots = %d, want saturation at MaxInt64", s.MaxPivots)
	}
	if b.IsZero() || (Budget{}).IsZero() != true {
		t.Fatalf("IsZero misclassifies budgets")
	}
}
