package smt

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Budget bounds the resources a single Check/CheckContext call may consume.
// A zero field means "unlimited" for that resource; wall-clock limits are
// the CheckContext context's deadline. When any bound is hit
// the check stops and returns a Result with Status Unknown, fully populated
// Stats, and Why set to a *BudgetError naming the exhausted resource — it
// never hangs and never returns a nil Result for a budget stop.
type Budget struct {
	// MaxConflicts bounds the CDCL search's learnt conflicts.
	MaxConflicts int64
	// MaxPivots bounds simplex pivot steps across all theory checks.
	MaxPivots int64
}

// IsZero reports whether no bound is set.
func (b Budget) IsZero() bool {
	return b == Budget{}
}

// Scale returns a copy of the budget with every finite bound multiplied by
// f (saturating at the maximum representable value). Zero (unlimited)
// bounds stay unlimited. It backs retry-with-escalating-budget policies.
func (b Budget) Scale(f float64) Budget {
	scaleInt := func(v int64) int64 {
		if v <= 0 {
			return v
		}
		nv := float64(v) * f
		if nv >= math.MaxInt64 {
			return math.MaxInt64
		}
		return int64(nv)
	}
	b.MaxConflicts = scaleInt(b.MaxConflicts)
	b.MaxPivots = scaleInt(b.MaxPivots)
	return b
}

// Resource names carried by BudgetError.
const (
	ResourceConflicts = "conflicts"
	ResourcePivots    = "pivots"
)

// BudgetError explains an Unknown result caused by resource exhaustion.
type BudgetError struct {
	// Resource is one of the Resource* constants.
	Resource string
	// Limit is the configured bound.
	Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("smt: %s budget exhausted (limit %d)", e.Resource, e.Limit)
}

// Interruption points reported to an Interrupter. They name the solver
// layer whose loop observed the poll.
const (
	// PointEncode fires between top-level assertions while lowering the
	// assertion stack into the SAT+simplex instance.
	PointEncode = "encode"
	// PointCDCL fires inside the CDCL search loop (every conflict and every
	// few thousand propagations).
	PointCDCL = "cdcl"
	// PointSimplex fires inside the simplex pivot loop (every pivot).
	PointSimplex = "simplex"
)

// Interrupter is a deterministic fault-injection hook: it is polled at
// every solver interruption point, and a non-nil return aborts the check
// with Status Unknown (the returned error becomes Result.Why). Tests use it
// to exercise every cancellation path without wall-clock sleeps. Checks are
// single-goroutine, so implementations need no locking.
type Interrupter interface {
	// Interrupt is called with the interruption point (one of the Point*
	// constants). Returning a non-nil error aborts the check.
	Interrupt(point string) error
}

// InterruptFunc adapts a function to the Interrupter interface.
type InterruptFunc func(point string) error

// Interrupt implements Interrupter.
func (f InterruptFunc) Interrupt(point string) error { return f(point) }

// ErrInterrupted is the error a CountdownInterrupter fires with.
var ErrInterrupted = errors.New("smt: interrupted by fault injection")

// CountdownInterrupter fires ErrInterrupted once K matching solver events
// have been observed, then keeps firing on every subsequent poll. The
// countdown seed K makes interruption deterministic and reproducible: the
// solver itself is deterministic, so the same seed always interrupts at the
// same point of the search.
type CountdownInterrupter struct {
	// Point restricts counting to one interruption point (""  counts all).
	Point string

	remaining int64
	fired     bool
}

// NewCountdownInterrupter returns an interrupter that fires after k
// matching events (k ≤ 0 fires on the first poll).
func NewCountdownInterrupter(k int64) *CountdownInterrupter {
	return &CountdownInterrupter{remaining: k}
}

// Interrupt implements Interrupter.
func (c *CountdownInterrupter) Interrupt(point string) error {
	if c.Point != "" && point != c.Point {
		return nil
	}
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	c.fired = true
	return ErrInterrupted
}

// Fired reports whether the interrupter has gone off.
func (c *CountdownInterrupter) Fired() bool { return c.fired }

// controller evaluates, at each interruption point, the stop conditions a
// check is subject to: fault injection and context cancellation or
// deadline. (Conflict and pivot budgets are enforced by the solver loops
// that own those counters.)
type controller struct {
	ctx         context.Context
	interrupter Interrupter
}

// needed reports whether the controller has anything to watch; when false
// the solver loops skip installing poll hooks entirely.
func (c *controller) needed() bool {
	return c.interrupter != nil || c.ctx.Done() != nil
}

// poll evaluates the stop conditions at the given interruption point.
func (c *controller) poll(point string) error {
	if c.interrupter != nil {
		if err := c.interrupter.Interrupt(point); err != nil {
			return err
		}
	}
	return c.ctx.Err()
}

// stopFunc returns a poll closure bound to one interruption point, or nil
// when the controller has nothing to watch.
func (c *controller) stopFunc(point string) func() error {
	if !c.needed() {
		return nil
	}
	return func() error { return c.poll(point) }
}
