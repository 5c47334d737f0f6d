// Package synth implements the paper's countermeasure synthesis mechanism
// (Section IV): an iterative combination of a candidate security
// architecture selection model (Eqs. 27–30) and the UFDI attack
// verification model (internal/core). A candidate — a set of buses whose
// measurements get data-integrity protection — is a solution when the
// attack model becomes unsatisfiable under it (Algorithm 1).
package synth

import (
	"context"
	"errors"
	"time"

	"segrid/internal/core"
	"segrid/internal/smt"
)

// ErrNoArchitecture is returned when no candidate within the operator's
// budget resists the specified attacker.
var ErrNoArchitecture = errors.New("synth: no security architecture satisfies the requirements")

// ErrInvalidRequirements is wrapped by every requirement-validation
// failure: a missing or malformed attack scenario, a non-positive budget,
// an excluded or required ID outside the candidate space. Other synthesis
// errors are failures of the run, not of the request.
var ErrInvalidRequirements = errors.New("synth: invalid requirements")

// Requirements bundles the security requirements (the expected attack
// model) with the grid operator's constraints.
type Requirements struct {
	// Attack is the attacker profile to defend against. Its goal is
	// typically AnyState (protect every state); any core.Scenario works.
	Attack *core.Scenario

	// ExtraAttacks lists additional attacker profiles the architecture
	// must resist as well — e.g. the same attacker over every admissible
	// true topology of non-core lines (the paper's Scenario 3, where an
	// architecture must hold whether lines 5 and 13 are in service or
	// not). All profiles must share the primary scenario's measurement
	// configuration.
	ExtraAttacks []*core.Scenario

	// MaxSecuredBuses is T_SB (Eq. 27), the operator's budget.
	MaxSecuredBuses int

	// ExcludedBuses lists buses the operator cannot secure (Eq. 29).
	ExcludedBuses []int

	// RequiredBuses lists buses every candidate must secure. The paper's
	// case-study architectures all include the reference bus, so its
	// scenarios set RequiredBuses = {RefBus}.
	RequiredBuses []int

	// Prune enables the Eq. 30 search-space reduction: a secured bus
	// implies its measurement-connected neighbors are not selected.
	Prune bool

	// MaxIterations bounds Algorithm 1's loop; ≤ 0 means unlimited.
	// Exhausting it returns a *BudgetExhaustedError (matched by
	// errors.Is(err, ErrBudgetExhausted)), distinct from ErrNoArchitecture:
	// the candidate space was not proven empty, the search merely gave up.
	MaxIterations int

	// Limits bounds the run's wall clock and per-candidate solver budgets;
	// the zero value means unbounded.
	Limits Limits

	// ProofDir, when non-empty, turns on UNSAT certificate logging for the
	// attack-verification solvers: attack model i (the primary attack is 0,
	// ExtraAttacks follow in order) streams its certificates to
	// <ProofDir>/attack-<tag>-<i>.proof, one file covering every candidate
	// check against that model. The tag is ProofTag, or a generated
	// process-unique run component when ProofTag is empty, so concurrent
	// synthesis runs can share one directory without their certificate
	// streams colliding. Files are staged in hidden temporaries and renamed
	// into place when the run's writers close, so a killed run never leaves
	// a half-written certificate at a published name. The files are listed
	// on the returned Architecture and can be validated independently with
	// cmd/proofcheck. The directory must already exist.
	ProofDir string

	// ProofTag overrides the generated per-run component of certificate
	// file names (see ProofDir). Callers that need predictable names — a
	// service tagging streams by request or session id — set it; it must be
	// unique among runs sharing the directory.
	ProofTag string

	// NoScreen disables the LP-relaxation screening pre-filter. By default
	// every (candidate, attack model) check first consults internal/screen:
	// a definitive relaxation verdict resolves the check without touching
	// the SMT solver — Infeasible skips the model, FeasibleIntegral defeats
	// the candidate and feeds the witness's support into hitting-set
	// blocking. Verdicts are unchanged either way (the screen is certifying
	// and inconclusive screens fall through); this is the ablation switch.
	// Proof-logging runs (ProofDir set) skip the screen automatically, so
	// certificate streams keep one certificate per refuting check.
	NoScreen bool

	// CubeWorkers switches Algorithm 1 to cube-and-conquer: the candidate
	// space is partitioned by sign constraints on pivot buses and the cubes
	// are fanned across that many workers, each running the selection/verify
	// loop on its own incremental solver instances with counterexample
	// supports shared through a common pool. 0 keeps the sequential loop;
	// < 0 selects DefaultWorkers(). The verdict is unchanged — cubes
	// partition the space exactly, and shared blocking clauses are valid in
	// every cube — but which verified architecture is returned is
	// first-past-the-post among the workers.
	CubeWorkers int
}

// Architecture is a synthesized security architecture.
type Architecture struct {
	// SecuredBuses is the bus set to protect, ascending.
	SecuredBuses []int

	// Iterations is the number of Algorithm 1 loop iterations (candidates
	// tried, including the successful one).
	Iterations int

	// SelectTime and VerifyTime split the synthesis wall time between the
	// two models; the paper's Fig. 5 measures their sum.
	SelectTime time.Duration
	VerifyTime time.Duration

	// SelectStats and VerifyStats are the solver statistics of the last
	// candidate selection and verification checks (model sizes for the
	// paper's Table IV).
	SelectStats smt.Stats
	VerifyStats smt.Stats

	// ProofFiles lists the UNSAT certificate files written during
	// verification when Requirements.ProofDir was set, in attack-model
	// order. Empty otherwise. In cube mode these are the winning worker's
	// trimmed streams; losing workers' staged streams are discarded.
	ProofFiles []string

	// Workers is the effective cube-and-conquer worker count (0 for a
	// sequential run).
	Workers int
}

// Duration is the total synthesis time.
func (a *Architecture) Duration() time.Duration { return a.SelectTime + a.VerifyTime }

// Synthesize runs Algorithm 1: iterate candidate selection and attack
// verification until a candidate makes the attack model unsat. It returns
// ErrNoArchitecture when the candidate space is exhausted. It is
// SynthesizeContext with a background context.
func Synthesize(req *Requirements) (*Architecture, error) {
	return SynthesizeContext(context.Background(), req)
}

// SynthesizeContext runs Algorithm 1 under ctx and the requirements'
// Limits. Three outcomes are distinguished: a verified Architecture (nil
// error), a proof that no architecture exists (ErrNoArchitecture), and a
// graceful give-up (*BudgetExhaustedError, carrying the best unverified
// candidate plus iteration stats) when a deadline, the iteration cap, or
// the escalating per-candidate budget runs out. Malformed requirements
// return an error matching ErrInvalidRequirements.
func SynthesizeContext(ctx context.Context, req *Requirements) (*Architecture, error) {
	j := busJob(req)
	if err := j.validate(); err != nil {
		return nil, err
	}
	if req.CubeWorkers != 0 {
		workers := req.CubeWorkers
		if workers < 0 {
			workers = DefaultWorkers()
		}
		return synthesizeCubes(ctx, req, j, workers)
	}
	buses, w, err := j.runSequential(ctx)
	if err != nil {
		return nil, err
	}
	arch := w.architecture(buses)
	arch.ProofFiles = w.paths
	return arch, nil
}

// busJob is bus-granular synthesis over the bus space: every bus is
// selectable, Eq. 30 pruning supplies the extra clauses, and the LP screen
// pre-filters candidate checks. The search resets saved phases before each
// selection and tries full-budget candidates first (DESIGN.md §3 gives
// the measurements behind both choices).
func busJob(req *Requirements) *job {
	j := &job{
		space: space{
			kind:            "bus",
			overlay:         func(ids []int) core.Overlay { return core.Overlay{SecuredBuses: ids} },
			support:         func(r *core.Result) []int { return r.CompromisedBuses },
			resetPhases:     true,
			fullBudgetFirst: true,
		},
		scenarios:     append([]*core.Scenario{req.Attack}, req.ExtraAttacks...),
		budget:        req.MaxSecuredBuses,
		excluded:      req.ExcludedBuses,
		required:      req.RequiredBuses,
		maxIterations: req.MaxIterations,
		limits:        req.Limits,
		proofDir:      req.ProofDir,
		proofTag:      req.ProofTag,
	}
	if req.Attack == nil || req.Attack.Meas == nil {
		return j // validate reports it
	}
	sc := req.Attack
	sys := sc.System()
	for b := 1; b <= sys.Buses; b++ {
		j.ids = append(j.ids, b)
	}
	if req.Prune {
		// Eq. 30: securing a bus makes securing a measurement-connected
		// neighbor unnecessary; prune candidates that secure both ends of
		// a line with a taken flow measurement.
		for _, ln := range sys.Lines {
			if sc.Meas.Taken[sys.ForwardFlowMeas(ln.ID)] || sc.Meas.Taken[sys.BackwardFlowMeas(ln.ID)] {
				j.pairs = append(j.pairs, [2]int{ln.From, ln.To})
			}
		}
	}
	if screeningOn(req) {
		j.screen = screenCandidate
	}
	return j
}
