package sat

import (
	"errors"
	"testing"
)

// TestBudgetMaxConflicts checks the conflict budget still returns Unknown
// with ErrBudget and statistics at the cap.
func TestBudgetMaxConflicts(t *testing.T) {
	s := NewSolver(Options{MaxConflicts: 10})
	addPigeonhole(t, s, 8)
	st, err := s.Solve()
	if st != StatusUnknown {
		t.Fatalf("Solve = %v, want unknown", st)
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if got := s.Statistics().Conflicts; got < 10 {
		t.Fatalf("Conflicts = %d, want >= budget 10", got)
	}
}

// TestBudgetStopHookPreflight verifies that an already-firing Stop hook
// aborts the solve before any search work.
func TestBudgetStopHookPreflight(t *testing.T) {
	boom := errors.New("stop now")
	s := NewSolver(Options{Stop: func() error { return boom }})
	addPigeonhole(t, s, 6)
	st, err := s.Solve()
	if st != StatusUnknown || !errors.Is(err, boom) {
		t.Fatalf("Solve = %v, %v; want unknown with stop error", st, err)
	}
	if got := s.Statistics().Conflicts; got != 0 {
		t.Fatalf("Conflicts = %d before first poll, want 0", got)
	}
}

// TestBudgetStopHookMidSearch fires the Stop hook after a fixed number of
// polls, checking the solver aborts deterministically mid-search with
// partial stats.
func TestBudgetStopHookMidSearch(t *testing.T) {
	boom := errors.New("stop now")
	polls := 0
	s := NewSolver(Options{Stop: func() error {
		polls++
		if polls > 5 {
			return boom
		}
		return nil
	}})
	addPigeonhole(t, s, 8)
	st, err := s.Solve()
	if st != StatusUnknown || !errors.Is(err, boom) {
		t.Fatalf("Solve = %v, %v; want unknown with stop error", st, err)
	}
	if got := s.Statistics().Conflicts; got == 0 {
		t.Fatalf("Conflicts = 0, want mid-search interruption after some work")
	}
}

// TestBudgetStopHookNilKeepsSolving makes sure the default (no hook, no
// budgets) still decides the instance.
func TestBudgetStopHookNilKeepsSolving(t *testing.T) {
	s := NewSolver(Options{})
	addPigeonhole(t, s, 6)
	st, err := s.Solve()
	if err != nil || st != StatusUnsat {
		t.Fatalf("Solve = %v, %v; want unsat", st, err)
	}
}
