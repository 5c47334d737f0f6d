// Package screen is the vocabulary of the LP-relaxation screening tier in
// front of the full UFDI SMT model: the three-valued Verdict, the run
// Options and Stats, and the rational Farkas Certificate with its checker.
// The relaxation itself — a continuous relaxation of the
// attack-feasibility constraint system solved on the exact rational
// simplex, after Chu, Zhang, Kosut & Sankar (arXiv:1605.06557) — is the
// second lowering of a core.Scenario and lives in internal/core
// (core.ScreenScenario, which answers a core.ScreenResult) next to the SMT
// encoding. Keeping Certificate.Verify here keeps the checker independent
// of the code that produces certificates.
//
// A definitive verdict is certified: core.ScreenScenario returns
// Infeasible only after Certificate.Verify has accepted every Farkas
// certificate it carries, and FeasibleIntegral only with a concrete attack
// the model's exact evaluator has accepted. Anything else — fractional
// optimum, replay failure, a refused certificate, budget or cancellation
// — is Inconclusive: the screen never returns a silent wrong answer.
package screen

import "time"

// Verdict is the screen's three-valued answer.
type Verdict int

const (
	// Inconclusive means the relaxation could not decide: fall through to
	// the full SMT model. Never a wrong answer, possibly a useless one.
	Inconclusive Verdict = iota
	// Infeasible is definitive: the relaxation is UNSAT, therefore the full
	// model is UNSAT. Certificates carry the Farkas proof.
	Infeasible
	// FeasibleIntegral is definitive: the relaxed optimum replayed exactly
	// as a concrete attack vector satisfying the full model.
	FeasibleIntegral
)

func (v Verdict) String() string {
	switch v {
	case Infeasible:
		return "infeasible"
	case FeasibleIntegral:
		return "feasible"
	default:
		return "inconclusive"
	}
}

// Definitive reports whether the verdict answers the instance without the
// SMT tier.
func (v Verdict) Definitive() bool { return v != Inconclusive }

// DefaultMaxPivots is the pivot budget the repository's screening
// consumers (service, synthesis, CLIs) use: enough for any instance the
// screen can decide cheaply, small enough that a hopeless instance falls
// through to the SMT tier in bounded time.
const DefaultMaxPivots int64 = 512

// Options tune a screening run.
type Options struct {
	// MaxPivots bounds total simplex pivots across the whole screen
	// (0 = unlimited). Exhaustion degrades to Inconclusive.
	MaxPivots int64
	// Stop is polled during simplex work; a non-nil return aborts the
	// screen to Inconclusive. Context cancellation is wired in by Check
	// regardless; Stop is for fault injection and external budgets.
	Stop func() error
}

// Stats describes the work a screening run did.
type Stats struct {
	Vars   int
	Rows   int
	Pivots int64
	// Probes is the number of strict sign probes checked.
	Probes  int
	Elapsed time.Duration
}
