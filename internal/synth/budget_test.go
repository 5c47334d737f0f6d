package synth

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/smt"
)

// TestBudgetMaxIterations pins satellite behavior: exhausting MaxIterations
// is a *BudgetExhaustedError carrying the best candidate — distinct from
// ErrNoArchitecture, which remains a proof of impossibility.
func TestBudgetMaxIterations(t *testing.T) {
	req, err := CaseStudyRequirements(2, 5)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.MaxIterations = 2 // the scenario needs ~11
	_, err = Synthesize(req)
	if err == nil {
		t.Fatalf("Synthesize succeeded in 2 iterations, want exhaustion")
	}
	if errors.Is(err, ErrNoArchitecture) {
		t.Fatalf("iteration exhaustion reported as ErrNoArchitecture")
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted match", err)
	}
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetExhaustedError", err)
	}
	if be.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", be.Iterations)
	}
	if len(be.BestCandidate) == 0 {
		t.Fatalf("BestCandidate empty after two selections")
	}
}

// TestBudgetRunTimeout checks the whole-run deadline degrades gracefully:
// no hang, no goroutine leak, best-so-far candidate reported.
func TestBudgetRunTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	req, err := CaseStudyRequirements(2, 5)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.Limits = Limits{Timeout: 15 * time.Millisecond}
	start := time.Now()
	_, err = Synthesize(req)
	elapsed := time.Since(start)
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Skipf("run finished inside the timeout (%s): %v", elapsed, err)
	}
	if !errors.Is(be.Reason, context.DeadlineExceeded) {
		t.Fatalf("Reason = %v, want context.DeadlineExceeded", be.Reason)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out run took %s to give up", elapsed)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, got)
	}
}

// TestBudgetEscalationConverges starts verification with a budget far too
// small for the scenario and relies on the fixed ×4, four-attempt
// escalation ladder: the synthesis must still find the paper's
// architecture instead of giving up.
func TestBudgetEscalationConverges(t *testing.T) {
	req, err := CaseStudyRequirements(2, 5)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.Limits = Limits{InitialBudget: &smt.Budget{MaxConflicts: 2, MaxPivots: 2}}
	// Without the LP screen every candidate check runs on the SMT ladder.
	req.NoScreen = true
	arch, err := Synthesize(req)
	if err != nil {
		t.Fatalf("Synthesize with escalating budget: %v", err)
	}
	if len(arch.SecuredBuses) == 0 || len(arch.SecuredBuses) > 5 {
		t.Fatalf("architecture %v out of budget", arch.SecuredBuses)
	}
}

// TestBudgetEscalationExhausted starts the ladder so low that its last
// attempt (1·4³ = 64 conflicts and pivots) still cannot decide a candidate:
// the run must end in BudgetExhaustedError whose Reason is the solver's
// budget, never a bogus architecture or ErrNoArchitecture.
func TestBudgetEscalationExhausted(t *testing.T) {
	sys, err := grid.Case("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScenario(sys)
	sc.AnyState = true
	req := &Requirements{Attack: sc, MaxSecuredBuses: 23, Prune: true}
	req.Limits = Limits{InitialBudget: &smt.Budget{MaxConflicts: 1, MaxPivots: 1}}
	// The LP screen would answer these candidate checks without the SMT
	// solver, and this test is specifically about the SMT budget ladder.
	req.NoScreen = true
	_, err = Synthesize(req)
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExhaustedError", err)
	}
	if errors.Is(err, ErrNoArchitecture) {
		t.Fatalf("budget exhaustion matched ErrNoArchitecture")
	}
	var sbe *smt.BudgetError
	if !errors.As(be.Reason, &sbe) {
		t.Fatalf("Reason = %v, want a *smt.BudgetError", be.Reason)
	}
}

// TestBudgetContextCancellation cancels between synthesis iterations via a
// pre-cancelled context: the run must surface the cancellation as a
// BudgetExhaustedError immediately.
func TestBudgetContextCancellation(t *testing.T) {
	req, err := CaseStudyRequirements(2, 5)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = SynthesizeContext(ctx, req)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled run took %s to give up", elapsed)
	}
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExhaustedError", err)
	}
	if !errors.Is(be.Reason, context.Canceled) {
		t.Fatalf("Reason = %v, want context.Canceled", be.Reason)
	}
	if be.Iterations != 0 {
		t.Fatalf("Iterations = %d on a pre-cancelled run, want 0", be.Iterations)
	}
}

// TestBudgetMeasurementGranular mirrors the iteration-cap check for the
// measurement-granular mechanism.
func TestBudgetMeasurementGranular(t *testing.T) {
	sc := core.NewScenario(grid.IEEE14())
	sc.AnyState = true
	req := &MeasurementRequirements{
		Attack:                 sc,
		MaxSecuredMeasurements: 13,
		// Two iterations: the first candidate is the empty set; the learnt
		// blocking clause then forces a non-empty second one.
		MaxIterations: 2,
	}
	_, err := SynthesizeMeasurements(req)
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Skipf("measurement synthesis finished within two iterations: %v", err)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted match", err)
	}
	if len(be.BestCandidate) == 0 {
		t.Fatalf("BestCandidate empty after a post-blocking selection")
	}
}

// doneCounter counts the solver's Done queries on a check's context. A
// check asks a fixed number of times, so one plain check calibrates it.
type doneCounter struct {
	context.Context
	n int
}

func (c *doneCounter) Done() <-chan struct{} {
	c.n++
	return c.Context.Done()
}

// TestBudgetLadderStopsOnRefusedWitness tightens a model's scenario after
// encoding, so every feasible witness fails the exact evaluator: the
// ladder must not re-solve a refused witness under larger budgets.
func TestBudgetLadderStopsOnRefusedWitness(t *testing.T) {
	sc := core.NewScenario(grid.IEEE14())
	sc.AnyState = true
	attack, err := core.NewModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.MaxAlteredMeasurements = 1
	one := &doneCounter{Context: context.Background()}
	if _, err := attack.CheckContext(one); err != nil {
		t.Fatal(err)
	}
	ladder := &doneCounter{Context: context.Background()}
	res, err := verifyCandidate(ladder, attack, smt.Budget{MaxConflicts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive || !errors.Is(res.Why, core.ErrRefused) {
		t.Fatalf("ladder = inconclusive %v, why %v; want the refusal", res.Inconclusive, res.Why)
	}
	if ladder.n != one.n {
		t.Fatalf("ladder ran %d checks, want 1", ladder.n/one.n)
	}
}
