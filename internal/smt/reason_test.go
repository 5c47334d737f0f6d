package smt

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBudgetUnknownReasonClassification drives every Unknown cause through a
// real check and asserts Stats.Unknown carries the matching machine-readable
// reason with the right retryability.
func TestBudgetUnknownReasonClassification(t *testing.T) {
	t.Run("conflicts", func(t *testing.T) {
		s := NewSolver(DefaultOptions())
		assertPigeonhole(s, 8)
		s.SetBudget(Budget{MaxConflicts: 3})
		res, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		wantReason(t, res, ReasonConflictBudget, true)
	})
	t.Run("pivots", func(t *testing.T) {
		s := NewSolver(DefaultOptions())
		assertChain(s, 40)
		s.SetBudget(Budget{MaxPivots: 2})
		res, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		wantReason(t, res, ReasonPivotBudget, true)
	})
	t.Run("cancelled", func(t *testing.T) {
		s := NewSolver(DefaultOptions())
		assertPigeonhole(s, 8)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := s.CheckContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantReason(t, res, ReasonCancelled, false)
	})
	t.Run("deadline", func(t *testing.T) {
		s := NewSolver(DefaultOptions())
		assertPigeonhole(s, 8)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := s.CheckContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantReason(t, res, ReasonDeadline, false)
	})
	t.Run("interrupted", func(t *testing.T) {
		s := NewSolver(DefaultOptions())
		assertPigeonhole(s, 7)
		s.SetInterrupter(NewCountdownInterrupter(5))
		res, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		wantReason(t, res, ReasonInterrupted, true)
	})
}

func wantReason(t *testing.T, res *Result, want UnknownReason, retryable bool) {
	t.Helper()
	if res.Status != Unknown {
		t.Fatalf("Status = %v, want Unknown", res.Status)
	}
	if res.Stats.Unknown != want {
		t.Fatalf("Stats.Unknown = %v (why %v), want %v", res.Stats.Unknown, res.Why, want)
	}
	if res.Stats.Unknown.Retryable() != retryable {
		t.Fatalf("Retryable() = %v, want %v for %v", !retryable, retryable, want)
	}
}

// TestBudgetUnknownReasonClearsOnVerdict checks the reason resets on a
// decided result: a solver that first exhausts a budget and then decides
// must not leak the stale reason through Stats.
func TestBudgetUnknownReasonClearsOnVerdict(t *testing.T) {
	s := NewSolver(DefaultOptions())
	assertPigeonhole(s, 5)
	s.SetBudget(Budget{MaxConflicts: 1})
	res, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unknown != ReasonConflictBudget {
		t.Fatalf("Stats.Unknown = %v, want conflict budget", res.Stats.Unknown)
	}
	s.SetBudget(Budget{})
	res, err = s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Fatalf("Status = %v, want Unsat", res.Status)
	}
	if res.Stats.Unknown != ReasonNone {
		t.Fatalf("Stats.Unknown = %v after verdict, want ReasonNone", res.Stats.Unknown)
	}
	if res.Stats.Unknown.String() != "" {
		t.Fatalf("ReasonNone token = %q, want empty", res.Stats.Unknown.String())
	}
}

// TestClassifyUnknownTokens pins the classification and token table: service
// API responses expose these strings, so they are part of the contract.
func TestClassifyUnknownTokens(t *testing.T) {
	cases := []struct {
		err   error
		want  UnknownReason
		token string
	}{
		{nil, ReasonNone, ""},
		{&BudgetError{Resource: ResourceConflicts}, ReasonConflictBudget, "budget-conflicts"},
		{&BudgetError{Resource: ResourcePivots}, ReasonPivotBudget, "budget-pivots"},
		{context.Canceled, ReasonCancelled, "cancelled"},
		{context.DeadlineExceeded, ReasonDeadline, "deadline"},
		{ErrInterrupted, ReasonInterrupted, "interrupted"},
		{errors.New("weird"), ReasonOther, "other"},
		{fmt.Errorf("wrapped: %w", context.Canceled), ReasonCancelled, "cancelled"},
	}
	for _, tc := range cases {
		got := ClassifyUnknown(tc.err)
		if got != tc.want {
			t.Errorf("ClassifyUnknown(%v) = %v, want %v", tc.err, got, tc.want)
		}
		if got.String() != tc.token {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.token)
		}
	}
	if ReasonCancelled.Budget() || !ReasonPivotBudget.Budget() {
		t.Errorf("Budget() misclassifies reasons")
	}
}
