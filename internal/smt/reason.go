package smt

import (
	"context"
	"errors"
)

// UnknownReason is the machine-readable classification of an Unknown result,
// carried in Stats so services and clients can decide whether retrying can
// possibly help without string-matching Result.Why. The split matters for a
// retry ladder: a budget-exhausted check may succeed under a larger budget or
// on a fresh encoder, while a cancelled or deadline-expired check will not —
// its caller has already given up.
type UnknownReason int8

const (
	// ReasonNone marks a result that is not Unknown (Sat or Unsat).
	ReasonNone UnknownReason = iota
	// ReasonConflictBudget: Budget.MaxConflicts was exhausted.
	ReasonConflictBudget
	// ReasonPivotBudget: Budget.MaxPivots was exhausted.
	ReasonPivotBudget
	// ReasonCancelled: the CheckContext context was cancelled.
	ReasonCancelled
	// ReasonDeadline: the CheckContext context's deadline expired.
	ReasonDeadline
	// ReasonInterrupted: an Options.Interrupter aborted the check (fault
	// injection or an embedding-specific stop condition).
	ReasonInterrupted
	// ReasonOther covers causes the solver cannot classify — e.g. a custom
	// Interrupter error that is none of the above, or genuine theory
	// incompleteness should an incomplete theory ever be plugged in.
	ReasonOther
)

// String renders the reason as a stable machine-readable token (empty for
// ReasonNone); services expose it verbatim in API responses.
func (r UnknownReason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case ReasonConflictBudget:
		return "budget-conflicts"
	case ReasonPivotBudget:
		return "budget-pivots"
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline"
	case ReasonInterrupted:
		return "interrupted"
	default:
		return "other"
	}
}

// Retryable reports whether retrying the check could plausibly produce a
// verdict: true for resource-budget exhaustion (a larger budget or a fresh
// encoder may finish) and for injected interruptions (the fault is
// environmental, not inherent to the query); false for cancellation and
// deadline expiry (the caller stopped waiting) and for unclassified causes.
func (r UnknownReason) Retryable() bool {
	switch r {
	case ReasonConflictBudget, ReasonPivotBudget, ReasonInterrupted:
		return true
	default:
		return false
	}
}

// Budget reports whether the reason is a resource-budget exhaustion.
func (r UnknownReason) Budget() bool {
	switch r {
	case ReasonConflictBudget, ReasonPivotBudget:
		return true
	default:
		return false
	}
}

// ClassifyUnknown maps a Result.Why error to its UnknownReason. A nil error
// maps to ReasonNone.
func ClassifyUnknown(err error) UnknownReason {
	if err == nil {
		return ReasonNone
	}
	var be *BudgetError
	switch {
	case errors.As(err, &be):
		switch be.Resource {
		case ResourceConflicts:
			return ReasonConflictBudget
		case ResourcePivots:
			return ReasonPivotBudget
		}
		return ReasonOther
	case errors.Is(err, context.Canceled):
		return ReasonCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, ErrInterrupted):
		return ReasonInterrupted
	default:
		return ReasonOther
	}
}
