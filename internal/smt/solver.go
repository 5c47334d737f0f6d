package smt

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime/metrics"
	"time"

	"segrid/internal/lra"
	"segrid/internal/proof"
	"segrid/internal/sat"
)

// Status is the outcome of a Check call.
type Status int8

const (
	// Unknown means the solver gave up (e.g. budget exhausted).
	Unknown Status = iota
	// Sat means the assertions are satisfiable; a model is available.
	Sat
	// Unsat means the assertions are unsatisfiable.
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Options configure a Solver. The simplex consistency check runs at every
// unit-propagation fixpoint (eager DPLL(T)) and at-most-k constraints use
// the sequential-counter encoding; both are fixed, as in the paper's Z3
// backend (DESIGN §1, §5).
type Options struct {
	// Budget bounds the resources of each Check/CheckContext call; the zero
	// value means unlimited. See Budget for the exhaustion contract.
	Budget Budget
	// Interrupter, if non-nil, is a deterministic fault-injection hook
	// polled at every solver interruption point; a non-nil return aborts
	// the check with Status Unknown. Intended for tests.
	Interrupter Interrupter
	// FreshPerCheck disables incremental solving: every Check lowers the
	// whole assertion stack into a brand-new SAT instance and simplex
	// tableau, discarding learnt clauses and theory state. By default one
	// persistent instance stays alive across Checks, with scopes realized
	// as selector literals passed to the SAT core as assumptions. Ablation
	// and differential-testing knob.
	FreshPerCheck bool
	// Proof, if non-nil, streams a machine-checkable certificate of every
	// Unsat answer: DRAT-style clausal records from the SAT core plus
	// Farkas-certified theory lemmas and the atom/slack definitions needed
	// to check them (see package proof). One writer captures the solver's
	// whole lifetime; each Unsat Check appends an assumption-annotated check
	// record and is reported through Result.Proof. Leave nil (the default)
	// to skip all logging work.
	Proof *proof.Writer
}

// DefaultOptions returns the configuration used throughout the paper
// reproduction: unlimited budget, incremental solving, no proof logging.
func DefaultOptions() Options {
	return Options{}
}

// Stats describes the size of the encoded problem and the work done by one
// Check call. It backs the paper's Table IV (model memory/size) and the
// timing figures.
type Stats struct {
	BoolVars     int
	Clauses      int
	RealVars     int
	Atoms        int
	SlackVars    int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	TheoryChecks int64
	Pivots       int64
	// FastOps and BigOps count simplex rational operations on the
	// machine-word fast path versus promoted big.Rat arithmetic; their ratio
	// is the hybrid rational's observable promotion rate.
	FastOps int64
	BigOps  int64
	// AllocBytes is the total heap allocated while encoding and solving,
	// the reproduction's analogue of the paper's solver memory usage. It
	// is the growth of the process-wide /gc/heap/allocs:bytes counter of
	// runtime/metrics across the check.
	AllocBytes uint64
	Duration   time.Duration
	// Workers is the effective parallel worker count that produced this
	// result: 0 for plain sequential checks, ≥ 1 when a cube-and-conquer
	// synthesis set it (see synth.Requirements.CubeWorkers).
	Workers int
	// Unknown classifies an Unknown result (budget kind, cancellation,
	// deadline, injected interruption); ReasonNone on Sat/Unsat. It is the
	// machine-readable twin of Result.Why, letting retry policies decide
	// whether another attempt can help without inspecting error chains.
	Unknown UnknownReason
}

// cardKind distinguishes cardinality assertion directions.
type cardKind int8

const (
	cardAtMost cardKind = iota + 1
	cardAtLeast
)

type cardConstraint struct {
	fs   []Formula
	k    int
	kind cardKind
}

type scope struct {
	asserts []Formula
	cards   []cardConstraint

	// Incremental-encoding progress: the prefix of asserts/cards already
	// lowered into the persistent encoder, and the scope's selector literal,
	// allocated the first time the scope contributes a guarded clause. The
	// base scope never has a selector (its clauses are unconditional).
	doneAsserts int
	doneCards   int
	sel         sat.Lit
	hasSel      bool
}

// Solver is an SMT solver with push/pop scopes. Checks are incremental: one
// SAT instance and simplex tableau persist across Check calls, keeping the
// atom/slack maps and all learnt clauses alive. Assertions are encoded once,
// when first seen by a Check; a non-base scope's clauses carry a selector
// literal that is assumed while the scope is live and permanently negated by
// Pop. Options.FreshPerCheck restores the old rebuild-per-Check behavior.
// The zero value is not usable; construct with NewSolver.
type Solver struct {
	opts      Options
	boolNames []string
	realNames []string
	scopes    []*scope
	enc       *encoder
	lastStats Stats
}

// NewSolver constructs a solver.
func NewSolver(opts Options) *Solver {
	return &Solver{
		opts:   opts,
		scopes: []*scope{{}},
	}
}

// BoolVar creates a fresh Boolean variable. The name is used only for
// diagnostics.
func (s *Solver) BoolVar(name string) BoolVar {
	s.boolNames = append(s.boolNames, name)
	return BoolVar(len(s.boolNames) - 1)
}

// RealVar creates a fresh real variable.
func (s *Solver) RealVar(name string) RealVar {
	s.realNames = append(s.realNames, name)
	return RealVar(len(s.realNames) - 1)
}

// BoolName returns the diagnostic name of v.
func (s *Solver) BoolName(v BoolVar) string { return s.boolNames[v] }

// RealName returns the diagnostic name of v.
func (s *Solver) RealName(v RealVar) string { return s.realNames[v] }

// NumBoolVars returns the number of Boolean variables created.
func (s *Solver) NumBoolVars() int { return len(s.boolNames) }

// Assert adds f to the current scope.
func (s *Solver) Assert(f Formula) {
	top := s.scopes[len(s.scopes)-1]
	top.asserts = append(top.asserts, f)
}

// AssertAtMostK asserts that at most k of the given formulas are true.
func (s *Solver) AssertAtMostK(fs []Formula, k int) {
	top := s.scopes[len(s.scopes)-1]
	top.cards = append(top.cards, cardConstraint{fs: cloneFormulas(fs), k: k, kind: cardAtMost})
}

// AssertAtLeastK asserts that at least k of the given formulas are true.
func (s *Solver) AssertAtLeastK(fs []Formula, k int) {
	top := s.scopes[len(s.scopes)-1]
	top.cards = append(top.cards, cardConstraint{fs: cloneFormulas(fs), k: k, kind: cardAtLeast})
}

func cloneFormulas(fs []Formula) []Formula {
	out := make([]Formula, len(fs))
	copy(out, fs)
	return out
}

// Push opens a new assertion scope.
func (s *Solver) Push() { s.scopes = append(s.scopes, &scope{}) }

// Pop discards the most recent scope. Popping the base scope is an error.
// With a live persistent encoder, Pop retracts the scope's assertion and
// cardinality clauses by unit-asserting the negated selector; Tseitin
// definitions, atom bindings and slack rows introduced while encoding the
// scope stay (they are pure equivalences), as do learnt clauses (any learnt
// derived from a guarded clause carries the scope's negated selector and is
// satisfied the moment the unit lands).
func (s *Solver) Pop() error {
	if len(s.scopes) <= 1 {
		return fmt.Errorf("smt: Pop on base scope")
	}
	top := s.scopes[len(s.scopes)-1]
	if s.enc != nil && top.hasSel {
		s.enc.mustAdd(top.sel.Not())
	}
	s.scopes = s.scopes[:len(s.scopes)-1]
	return nil
}

// resetEncoding drops the persistent SAT+simplex instance; the next Check
// rebuilds it from the assertion stack. FreshPerCheck routes every Check
// through this, which keeps the ablation on the exact same encode path.
func (s *Solver) resetEncoding() {
	s.enc = nil
	for _, sc := range s.scopes {
		sc.doneAsserts, sc.doneCards = 0, 0
		sc.sel, sc.hasSel = sat.LitUndef, false
	}
}

// ResetPhases clears the persistent SAT core's saved phases back to the
// default polarity. Model-enumeration loops (assert blocking clause, Check
// again) call this between Checks: on a persistent instance, phase saving
// otherwise re-proposes a near neighbor of the just-blocked model, which can
// multiply the number of enumeration rounds. No-op before the first Check or
// under FreshPerCheck, where every Check already starts from default phases.
func (s *Solver) ResetPhases() {
	if s.enc != nil {
		s.enc.sat.ResetPhases()
	}
}

// NumScopes returns the current scope depth (≥ 1).
func (s *Solver) NumScopes() int { return len(s.scopes) }

// LastStats returns statistics of the most recent Check.
func (s *Solver) LastStats() Stats { return s.lastStats }

// Result carries the outcome of a Check and, on Sat, the model.
type Result struct {
	Status Status
	Stats  Stats

	// Why explains an Unknown status: a *BudgetError naming the exhausted
	// resource, context.Canceled/DeadlineExceeded for cancellation, or the
	// error an Interrupter fired with. It is nil on Sat and Unsat.
	Why error

	// Proof locates this answer's certificate when the solver was
	// configured with Options.Proof: the proof stream and the 1-based index
	// of the Unsat check record within it. It is nil on Sat/Unknown results
	// and when proof logging is off.
	Proof *proof.Handle

	boolVals []bool
	realVals []*big.Rat
}

// Bool returns v's value in the model. It must only be called on a Sat
// result.
func (r *Result) Bool(v BoolVar) bool {
	if r.Status != Sat {
		panic("smt: model access on non-sat result")
	}
	return r.boolVals[v]
}

// Real returns v's value in the model. It must only be called on a Sat
// result. The returned rational must not be mutated.
func (r *Result) Real(v RealVar) *big.Rat {
	if r.Status != Sat {
		panic("smt: model access on non-sat result")
	}
	return r.realVals[v]
}

// SetBudget replaces the solver's resource budget. Budgets are applied per
// Check: the SAT core baselines its conflict counter at every call and the
// simplex pivot bound is offset by the pivots already spent, so changing
// the budget between checks is safe even though the underlying instance
// persists; retry-with-escalating-budget policies rely on this.
func (s *Solver) SetBudget(b Budget) { s.opts.Budget = b }

// SetInterrupter replaces the fault-injection hook (nil clears it).
func (s *Solver) SetInterrupter(i Interrupter) { s.opts.Interrupter = i }

// Check solves the current assertion stack. It is CheckContext with a
// background context: uninterruptible from outside, but still subject to
// the configured Budget and Interrupter.
func (s *Solver) Check() (*Result, error) {
	return s.CheckContext(context.Background())
}

// heapAllocBytes reads the process's cumulative heap allocation. Unlike
// runtime.ReadMemStats it does not stop the world, so concurrent checks
// do not pause each other to measure themselves; the counter lags by at
// most the allocations still cached per P.
func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// CheckContext solves the current assertion stack under ctx. Cancellation
// is polled inside the CDCL search loop, the simplex pivot loop and the
// encoding pass, so even checks that would otherwise spin unboundedly
// return promptly. An interrupted or budget-exhausted check is not an
// error: it returns a Result with Status Unknown, Stats describing the
// partial work, and Why carrying the cause. A non-nil error is reserved
// for genuinely broken inputs (malformed formulas).
func (s *Solver) CheckContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	allocBefore := heapAllocBytes()

	budget := s.opts.Budget
	ctrl := &controller{ctx: ctx, interrupter: s.opts.Interrupter}
	if s.opts.FreshPerCheck {
		s.resetEncoding()
	}
	if s.enc == nil {
		s.enc = newEncoder(s)
	}
	enc := s.enc
	enc.beginCheck(budget, ctrl)

	finish := func(res *Result) *Result {
		res.Stats.AllocBytes = heapAllocBytes() - allocBefore
		res.Stats.Duration = time.Since(start)
		if res.Status == Unknown {
			res.Stats.Unknown = ClassifyUnknown(res.Why)
		}
		s.lastStats = res.Stats
		return res
	}
	interrupted := func(why error) *Result {
		return finish(&Result{Status: Unknown, Why: why, Stats: enc.statsSnapshot()})
	}

	// Encode only what previous checks have not: each scope remembers its
	// encoded prefix, and the done counters advance after a successful
	// lowering, so an interrupted encode resumes exactly where it stopped.
	// An encode error (malformed input) still snapshots stats so LastStats
	// reflects this check's partial work, not the previous check's.
	encodePoll := ctrl.stopFunc(PointEncode)
	for i, sc := range s.scopes {
		enc.curSel = sat.LitUndef
		if i > 0 {
			if !sc.hasSel && (sc.doneAsserts < len(sc.asserts) || sc.doneCards < len(sc.cards)) {
				sc.sel = sat.PosLit(enc.sat.NewVar())
				sc.hasSel = true
			}
			if sc.hasSel {
				enc.curSel = sc.sel
			}
		}
		for sc.doneAsserts < len(sc.asserts) {
			if encodePoll != nil {
				if err := encodePoll(); err != nil {
					enc.curSel = sat.LitUndef
					return interrupted(err), nil
				}
			}
			if err := enc.assertTop(sc.asserts[sc.doneAsserts]); err != nil {
				enc.curSel = sat.LitUndef
				finish(&Result{Status: Unknown, Why: err, Stats: enc.statsSnapshot()})
				return nil, err
			}
			sc.doneAsserts++
		}
		for sc.doneCards < len(sc.cards) {
			if encodePoll != nil {
				if err := encodePoll(); err != nil {
					enc.curSel = sat.LitUndef
					return interrupted(err), nil
				}
			}
			if err := enc.assertCard(sc.cards[sc.doneCards]); err != nil {
				enc.curSel = sat.LitUndef
				finish(&Result{Status: Unknown, Why: err, Stats: enc.statsSnapshot()})
				return nil, err
			}
			sc.doneCards++
		}
	}
	enc.curSel = sat.LitUndef

	assumps := make([]sat.Lit, 0, len(s.scopes)-1)
	for _, sc := range s.scopes[1:] {
		if sc.hasSel {
			assumps = append(assumps, sc.sel)
		}
	}
	res, err := enc.solve(assumps)
	if err != nil {
		// Every solve-time error is an interruption: map the solver-level
		// budget sentinels to typed BudgetErrors and surface the rest
		// (context and interrupter errors) as they are.
		res.Why = classifyInterrupt(err, budget)
		res.Status = Unknown
		return finish(res), nil
	}
	return finish(res), nil
}

// classifyInterrupt converts layer-internal budget sentinels into typed
// *BudgetError values; other causes pass through unchanged.
func classifyInterrupt(err error, b Budget) error {
	switch {
	case errors.Is(err, sat.ErrBudget):
		return &BudgetError{Resource: ResourceConflicts, Limit: b.MaxConflicts}
	case errors.Is(err, lra.ErrPivotBudget):
		return &BudgetError{Resource: ResourcePivots, Limit: b.MaxPivots}
	default:
		return err
	}
}
