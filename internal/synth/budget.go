package synth

import (
	"context"
	"errors"
	"fmt"
	"time"

	"segrid/internal/core"
	"segrid/internal/smt"
)

// ErrBudgetExhausted is the sentinel wrapped by every BudgetExhaustedError:
// the synthesis run gave up (deadline, iteration cap, or solver budget)
// without proving that no architecture exists. Callers distinguish it from
// ErrNoArchitecture, which is a proof of impossibility.
var ErrBudgetExhausted = errors.New("synth: search budget exhausted")

// BudgetExhaustedError reports a synthesis run that ran out of resources,
// carrying the best candidate found so far plus iteration statistics so
// callers can degrade gracefully instead of losing the whole run.
type BudgetExhaustedError struct {
	// BestCandidate is the most recently proposed candidate (bus or
	// measurement IDs depending on the mechanism). It is the most refined
	// one — every earlier counterexample's support is hit — but it is NOT
	// verified; nil when the run stopped before the first selection.
	BestCandidate []int

	// Iterations is the number of Algorithm 1 iterations completed.
	Iterations int

	// SelectTime and VerifyTime split the wall time spent before giving up.
	SelectTime time.Duration
	VerifyTime time.Duration

	// LastStats is the solver statistics of the last check that ran.
	LastStats smt.Stats

	// Reason is the underlying cause: context.DeadlineExceeded or
	// context.Canceled, a *smt.BudgetError, or ErrBudgetExhausted itself
	// for the iteration cap.
	Reason error
}

// Error implements error.
func (e *BudgetExhaustedError) Error() string {
	msg := fmt.Sprintf("synth: budget exhausted after %d iterations", e.Iterations)
	if e.Reason != nil && !errors.Is(e.Reason, ErrBudgetExhausted) {
		msg += ": " + e.Reason.Error()
	}
	if len(e.BestCandidate) > 0 {
		msg += fmt.Sprintf(" (best unverified candidate %v)", e.BestCandidate)
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BudgetExhaustedError) Unwrap() error { return e.Reason }

// Is makes errors.Is(err, ErrBudgetExhausted) match every instance.
func (e *BudgetExhaustedError) Is(target error) bool { return target == ErrBudgetExhausted }

// Limits bounds a synthesis run. The zero value means unbounded, matching
// the original Algorithm 1 behavior.
type Limits struct {
	// Timeout bounds the whole run's wall clock; exceeding it returns a
	// *BudgetExhaustedError with the best candidate so far.
	Timeout time.Duration

	// InitialBudget, when non-nil, is the per-verification solver budget of
	// the first attempt. On an Unknown (budget-exhausted) verification the
	// budget is multiplied by 4 and the candidate retried, up to 4 attempts
	// in all: easy candidates stay fast, hard ones get bounded escalation
	// instead of unbounded search.
	InitialBudget *smt.Budget
}

// The escalation ladder a non-zero InitialBudget runs: each inconclusive
// attempt retries the candidate under a budget budgetGrowth times larger,
// budgetAttempts attempts in all.
const (
	budgetGrowth   = 4
	budgetAttempts = 4
)

// initialBudget is the budget of a candidate's first verification attempt;
// the zero Budget means unlimited.
func (l Limits) initialBudget() smt.Budget {
	if l.InitialBudget == nil {
		return smt.Budget{}
	}
	return *l.InitialBudget
}

// runContext applies the whole-run timeout to ctx.
func (l Limits) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Timeout > 0 {
		return context.WithTimeout(ctx, l.Timeout)
	}
	return ctx, func() {}
}

// verifyCandidate checks one attack model against a candidate (asserted by
// the caller inside the model's current scope) under the escalating budget
// ladder starting at b; an unlimited b gets a single attempt, and so does
// an Unknown no retry can help (deadline, cancellation, a witness the
// exact evaluator refused). It returns the final result; res.Inconclusive
// set means the ladder ended without a verdict.
func verifyCandidate(ctx context.Context, attack *core.Model, b smt.Budget) (*core.Result, error) {
	tries := budgetAttempts
	if b.IsZero() {
		tries = 1
	}
	var res *core.Result
	for try := 0; try < tries; try++ {
		attack.Solver().SetBudget(b)
		var err error
		res, err = attack.CheckContext(ctx)
		if err != nil {
			return nil, err
		}
		if !res.Inconclusive || !res.Stats.Unknown.Retryable() {
			return res, nil
		}
		b = b.Scale(budgetGrowth)
	}
	return res, nil
}
