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
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"segrid/internal/core"
	"segrid/internal/proof"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// ErrNoArchitecture is returned when no bus set within the operator's
// budget resists the specified attacker.
var ErrNoArchitecture = errors.New("synth: no security architecture satisfies the requirements")

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

	// Options configures the candidate selection solver; nil means
	// smt.DefaultOptions.
	Options *smt.Options

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

	// SupportPool, if non-nil, seeds the cube fleet's shared
	// counterexample-support pool and accumulates new supports into it —
	// the cross-request persistence hook: a caller that keys pools by
	// attack model can make later synthesis runs start from every support
	// earlier runs paid to discover. Supports depend only on the attack
	// scenarios (Attack plus ExtraAttacks), never on budget or exclusions,
	// so reuse across runs with the same scenarios is sound. nil gives the
	// run a private pool. Ignored by the sequential loop (CubeWorkers 0).
	SupportPool *SupportPool
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

// selectionModel is F_Secure of Algorithm 1. Its solver lives for the whole
// synthesis run: blocking clauses accumulate as incremental assertions on
// one persistent instance, so each nextCandidate call pays only for the new
// clauses plus the (learnt-clause-assisted) re-search.
type selectionModel struct {
	solver  *smt.Solver
	sb      []smt.BoolVar // 1-based per bus
	buses   int
	blocked [][]smt.Formula // blocking clauses, for re-assertion across scopes
}

// newSelectionModel encodes Eqs. 27–30.
func newSelectionModel(req *Requirements) (*selectionModel, error) {
	sc := req.Attack
	sys := sc.System()
	opts := smt.DefaultOptions()
	if req.Options != nil {
		opts = *req.Options
	}
	m := &selectionModel{
		solver: smt.NewSolver(opts),
		sb:     make([]smt.BoolVar, sys.Buses+1),
		buses:  sys.Buses,
	}
	for j := 1; j <= sys.Buses; j++ {
		m.sb[j] = m.solver.BoolVar(fmt.Sprintf("sb_%d", j))
	}
	// Eq. 27: operator budget.
	fs := make([]smt.Formula, 0, sys.Buses)
	for j := 1; j <= sys.Buses; j++ {
		fs = append(fs, smt.B(m.sb[j]))
	}
	m.solver.AssertAtMostK(fs, req.MaxSecuredBuses)
	// Eq. 29: operator exclusions.
	for _, j := range req.ExcludedBuses {
		if j < 1 || j > sys.Buses {
			return nil, fmt.Errorf("synth: excluded bus %d out of range 1..%d", j, sys.Buses)
		}
		m.solver.Assert(smt.Not(smt.B(m.sb[j])))
	}
	for _, j := range req.RequiredBuses {
		if j < 1 || j > sys.Buses {
			return nil, fmt.Errorf("synth: required bus %d out of range 1..%d", j, sys.Buses)
		}
		m.solver.Assert(smt.B(m.sb[j]))
	}
	// Eq. 30: securing a bus makes securing a measurement-connected
	// neighbor unnecessary; prune candidates that secure both ends of a
	// line with a taken flow measurement. (As in the paper, this is a
	// search-space reduction: architectures outside it may still protect
	// the grid but are never proposed.)
	if req.Prune {
		for _, ln := range sys.Lines {
			connected := sc.Meas.Taken[sys.ForwardFlowMeas(ln.ID)] ||
				sc.Meas.Taken[sys.BackwardFlowMeas(ln.ID)]
			if !connected {
				continue
			}
			m.solver.Assert(smt.Or(smt.Not(smt.B(m.sb[ln.From])), smt.Not(smt.B(m.sb[ln.To]))))
		}
	}
	return m, nil
}

// nextCandidate solves F_Secure. The returned status distinguishes an
// exhausted candidate space (Unsat) from a solver that gave up (Unknown,
// with why carrying the cause).
func (m *selectionModel) nextCandidate(ctx context.Context) (buses []int, stats smt.Stats, status smt.Status, why error, err error) {
	// Enumeration diversity: without this, the persistent solver's saved
	// phases walk each re-solve to a near neighbor of the just-blocked
	// candidate, inflating Algorithm 1's iteration count.
	m.solver.ResetPhases()
	res, err := m.solver.CheckContext(ctx)
	if err != nil {
		return nil, smt.Stats{}, smt.Unknown, nil, fmt.Errorf("synth: candidate selection: %w", err)
	}
	if res.Status != smt.Sat {
		return nil, res.Stats, res.Status, res.Why, nil
	}
	for j := 1; j <= m.buses; j++ {
		if res.Bool(m.sb[j]) {
			buses = append(buses, j)
		}
	}
	sort.Ints(buses)
	return buses, res.Stats, smt.Sat, nil, nil
}

// blockBySubset removes the failed candidate and all of its subsets:
// securing fewer buses can never help, so the next candidate must include
// at least one bus outside the failed set. (This is a sound strengthening
// of Algorithm 1's per-candidate blocking constraint; the
// counterexample-guided blockByAttack below is stronger still and is used
// whenever a witness attack is available.)
func (m *selectionModel) blockBySubset(failed []int) {
	in := make(map[int]bool, len(failed))
	for _, j := range failed {
		in[j] = true
	}
	fs := make([]smt.Formula, 0, m.buses-len(failed))
	for j := 1; j <= m.buses; j++ {
		if !in[j] {
			fs = append(fs, smt.B(m.sb[j]))
		}
	}
	m.block(fs)
}

// blockByAttack learns from a counterexample: the witness attack altered
// measurements homed at exactly the given buses, so any candidate securing
// none of them admits the identical attack. Every future candidate must hit
// the witness's support. This hitting-set refinement collapses Algorithm
// 1's iteration count on larger systems without losing completeness.
func (m *selectionModel) blockByAttack(supportBuses []int) {
	fs := make([]smt.Formula, 0, len(supportBuses))
	for _, j := range supportBuses {
		fs = append(fs, smt.B(m.sb[j]))
	}
	m.block(fs)
}

// block asserts a blocking clause and records it for re-assertion across
// budget-relaxation scopes.
func (m *selectionModel) block(fs []smt.Formula) {
	m.blocked = append(m.blocked, fs)
	m.solver.Assert(smt.Or(fs...))
}

// requireFullBudget constrains candidates to use the entire budget; with
// subset blocking this accelerates convergence. It is retracted (via a
// fresh phase) when the full-budget space is exhausted, since Eq. 30
// pruning can make full-size candidates infeasible while smaller ones work.
func (m *selectionModel) requireFullBudget(k int) {
	fs := make([]smt.Formula, 0, m.buses)
	for j := 1; j <= m.buses; j++ {
		fs = append(fs, smt.B(m.sb[j]))
	}
	m.solver.Push()
	m.solver.AssertAtLeastK(fs, k)
}

// relaxBudget pops the full-budget constraint. Blocking clauses asserted
// inside the popped scope are re-asserted at the base scope: a failed
// candidate stays failed regardless of the budget constraint.
func (m *selectionModel) relaxBudget() error {
	if err := m.solver.Pop(); err != nil {
		return err
	}
	for _, fs := range m.blocked {
		m.solver.Assert(smt.Or(fs...))
	}
	return nil
}

// withProofWriters rewires attack scenarios so each verification solver logs
// UNSAT certificates to <dir>/attack-<tag>-<i>.proof (tag generated when
// empty — see Requirements.ProofTag). Streams are atomic: they publish at
// those names only when closed cleanly. Scenarios are shallow-copied with
// cloned solver options, so callers' scenarios stay untouched. The caller
// owns the returned writers (closeProofWriters).
func withProofWriters(dir, tag string, scs []*core.Scenario) ([]*core.Scenario, []*proof.Writer, []string, error) {
	if tag == "" {
		tag = proof.UniqueName("", "")
	}
	out := make([]*core.Scenario, len(scs))
	writers := make([]*proof.Writer, 0, len(scs))
	paths := make([]string, 0, len(scs))
	for i, sc := range scs {
		path := filepath.Join(dir, fmt.Sprintf("attack-%s-%d.proof", tag, i))
		w, err := proof.CreateAtomic(path)
		if err != nil {
			for _, prev := range writers {
				prev.Close()
			}
			return nil, nil, nil, fmt.Errorf("synth: proof log: %w", err)
		}
		opts := smt.DefaultOptions()
		if sc.Options != nil {
			opts = *sc.Options
		}
		opts.Proof = w
		scc := *sc
		scc.Options = &opts
		out[i] = &scc
		writers = append(writers, w)
		paths = append(paths, path)
	}
	return out, writers, paths, nil
}

// closeProofWriters flushes and closes certificate writers. A write error
// invalidates the certificates, so it surfaces through errp — but never
// masks an error the run itself already produced.
func closeProofWriters(writers []*proof.Writer, errp *error) {
	for _, w := range writers {
		if cerr := w.Close(); cerr != nil && *errp == nil {
			*errp = fmt.Errorf("synth: proof log: %w", cerr)
		}
	}
}

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
// the escalating per-candidate budget runs out.
func SynthesizeContext(ctx context.Context, req *Requirements) (res *Architecture, err error) {
	if req.Attack == nil {
		return nil, fmt.Errorf("synth: requirements carry no attack scenario")
	}
	if req.MaxSecuredBuses < 1 {
		return nil, fmt.Errorf("synth: MaxSecuredBuses must be positive, got %d", req.MaxSecuredBuses)
	}
	if req.CubeWorkers != 0 {
		workers := req.CubeWorkers
		if workers < 0 {
			workers = DefaultWorkers()
		}
		return synthesizeCubes(ctx, req, workers)
	}
	ctx, cancelRun := req.Limits.runContext(ctx)
	defer cancelRun()
	pol := req.Limits.policy()

	scenarios := append([]*core.Scenario{req.Attack}, req.ExtraAttacks...)
	var proofFiles []string
	if req.ProofDir != "" {
		var writers []*proof.Writer
		scenarios, writers, proofFiles, err = withProofWriters(req.ProofDir, req.ProofTag, scenarios)
		if err != nil {
			return nil, err
		}
		defer closeProofWriters(writers, &err)
	}
	attacks := make([]*core.Model, 0, len(scenarios))
	for _, sc := range scenarios {
		m, err := core.NewModel(sc)
		if err != nil {
			return nil, fmt.Errorf("synth: attack model: %w", err)
		}
		attacks = append(attacks, m)
	}
	selection, err := newSelectionModel(req)
	if err != nil {
		return nil, err
	}

	arch := &Architecture{ProofFiles: proofFiles}
	var best []int
	exhausted := func(reason error) error {
		return &BudgetExhaustedError{
			BestCandidate: best,
			Iterations:    arch.Iterations,
			SelectTime:    arch.SelectTime,
			VerifyTime:    arch.VerifyTime,
			LastStats:     arch.VerifyStats,
			Reason:        reason,
		}
	}
	fullBudget := true
	selection.requireFullBudget(req.MaxSecuredBuses)
	for {
		if err := ctx.Err(); err != nil {
			return nil, exhausted(err)
		}
		if req.MaxIterations > 0 && arch.Iterations >= req.MaxIterations {
			return nil, exhausted(fmt.Errorf("%d iterations reached: %w", req.MaxIterations, ErrBudgetExhausted))
		}
		start := time.Now()
		candidate, selStats, selStatus, selWhy, err := selection.nextCandidate(ctx)
		arch.SelectTime += time.Since(start)
		arch.SelectStats = selStats
		if err != nil {
			return nil, err
		}
		if selStatus == smt.Unknown {
			return nil, exhausted(selWhy)
		}
		if selStatus != smt.Sat {
			if fullBudget {
				// Exhausted the full-budget space (possible when Eq. 30
				// pruning caps candidate size); fall back to any size.
				fullBudget = false
				if err := selection.relaxBudget(); err != nil {
					return nil, fmt.Errorf("synth: relax budget: %w", err)
				}
				continue
			}
			return nil, ErrNoArchitecture
		}
		arch.Iterations++
		best = candidate

		// Verify the candidate: push the security constraints onto every
		// attack model; unsat across all of them means the architecture
		// resists the attacker in every required scenario. Each attack
		// model keeps one long-lived solver across the whole candidate
		// loop — Push/Pop are selector-literal scopes on a persistent
		// SAT+simplex instance, so the UFDI encoding is lowered once and
		// clauses learnt refuting one candidate carry over to the next.
		// Verification runs under the per-candidate deadline and the
		// escalating budget ladder; an Unknown that survives escalation
		// ends the run gracefully with this candidate as best-so-far.
		start = time.Now()
		candCtx, cancelCand := req.Limits.candidateContext(ctx)
		resists := true
		var inconclusive error
		for ai, attack := range attacks {
			if screeningOn(req) {
				verdict, support := screenCandidate(candCtx, scenarios[ai], candidate)
				if verdict == screen.Infeasible {
					// The relaxation proves this scenario resists the
					// candidate; its SMT model is never consulted.
					continue
				}
				if verdict == screen.FeasibleIntegral {
					resists = false
					if len(support) > 0 {
						selection.blockByAttack(support)
					} else {
						selection.blockBySubset(candidate)
					}
					break
				}
			}
			attack.Solver().Push()
			if err := attack.AssertBusesSecured(candidate); err != nil {
				cancelCand()
				return nil, err
			}
			res, err := pol.verifyCandidate(candCtx, attack)
			if popErr := attack.Solver().Pop(); popErr != nil {
				cancelCand()
				return nil, popErr
			}
			if err != nil {
				cancelCand()
				return nil, fmt.Errorf("synth: candidate verification: %w", err)
			}
			arch.VerifyStats = res.Stats
			if res.Inconclusive {
				inconclusive = res.Why
				break
			}
			if res.Feasible {
				resists = false
				if len(res.CompromisedBuses) > 0 {
					selection.blockByAttack(res.CompromisedBuses)
				} else {
					selection.blockBySubset(candidate)
				}
				break
			}
		}
		cancelCand()
		arch.VerifyTime += time.Since(start)
		if inconclusive != nil {
			// Run-level cancellation surfaces as the run's cause, not the
			// candidate's.
			if err := ctx.Err(); err != nil {
				return nil, exhausted(err)
			}
			return nil, exhausted(inconclusive)
		}
		if resists {
			arch.SecuredBuses = candidate
			return arch, nil
		}
	}
}
