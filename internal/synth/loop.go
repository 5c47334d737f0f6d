package synth

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"segrid/internal/core"
	"segrid/internal/proof"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// This file is Algorithm 1, written once: one selection model over a
// candidate space, one candidate loop and one verify-and-block step. Bus-
// and measurement-granular synthesis differ only in the space they hand
// the loop; the sequential run is one cube with no cube literals, no shared
// pool and harvest depth 1, and a cube worker is the same loop with its
// cube literals, the fleet's support pool and harvestDepth.

// space is a candidate space: what the selection model chooses among and
// how a candidate meets the attack model. Its search policy is fixed data
// of the granularity, not a caller knob (DESIGN.md §3 gives the
// measurements behind each choice).
type space struct {
	// kind names a selectable ID ("bus", "measurement") in messages.
	kind string
	// ids are the selectable IDs, ascending: every bus, or every taken
	// measurement (securing an untaken one protects nothing).
	ids []int
	// pairs are the space's extra clauses: ID pairs never selected
	// together (Eq. 30 pruning for buses; none for measurements).
	pairs [][2]int
	// overlay secures a set of IDs on an attack scenario; support reads a
	// witness attack's footprint in the same IDs back for blocking.
	overlay func([]int) core.Overlay
	support func(*core.Result) []int
	// screen, when non-nil, is the LP-relaxation pre-filter consulted
	// before each SMT check (see screenCandidate).
	screen func(context.Context, *core.Scenario, core.Overlay) (screen.Verdict, []int)
	// resetPhases clears the selection solver's saved phases before each
	// selection; fullBudgetFirst searches candidates using the whole budget
	// before any smaller one.
	resetPhases, fullBudgetFirst bool
}

// job is one synthesis run in the form the loop consumes: a candidate
// space plus the requirements both granularities share.
type job struct {
	space
	scenarios          []*core.Scenario // the primary attack first, then the extra ones
	budget             int
	excluded, required []int
	maxIterations      int
	limits             Limits
	proofDir, proofTag string
}

// validate is the one requirement check of both granularities; every
// failure wraps ErrInvalidRequirements.
func (j *job) validate() error {
	if j.scenarios[0] == nil {
		return fmt.Errorf("%w: no attack scenario", ErrInvalidRequirements)
	}
	if j.budget < 1 {
		return fmt.Errorf("%w: the %s budget must be positive, got %d", ErrInvalidRequirements, j.kind, j.budget)
	}
	for i, sc := range j.scenarios {
		if sc == nil {
			return fmt.Errorf("%w: attack model %d is nil", ErrInvalidRequirements, i)
		}
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("%w: attack model %d: %w", ErrInvalidRequirements, i, err)
		}
	}
	selectable := make(map[int]bool, len(j.ids))
	for _, id := range j.ids {
		selectable[id] = true
	}
	for _, c := range []struct {
		role string
		ids  []int
	}{{"excluded", j.excluded}, {"required", j.required}} {
		for _, id := range c.ids {
			if !selectable[id] {
				return fmt.Errorf("%w: %s %s %d is not selectable", ErrInvalidRequirements, c.role, j.kind, id)
			}
		}
	}
	return nil
}

// selectionModel is F_Secure of Algorithm 1 (Eqs. 27–30) over a space. Its
// solver lives for the whole loop: blocking clauses accumulate as
// incremental assertions on one persistent instance, so each selection
// pays only for the new clauses plus the (learnt-clause-assisted)
// re-search.
type selectionModel struct {
	sp      *space
	solver  *smt.Solver
	vars    map[int]smt.BoolVar
	blocked [][]smt.Formula // blocking clauses, for re-assertion across scopes
	// fullBudget is set while the full-budget phase's scope is open.
	fullBudget bool
}

// newSelectionModel encodes the budget (Eq. 27), the operator's exclusions
// (Eq. 29) and requirements, the space's extra clauses (Eq. 30) and the
// cube literals.
func (j *job) newSelectionModel(cube []cubeLit) *selectionModel {
	m := &selectionModel{sp: &j.space, solver: smt.NewSolver(smt.DefaultOptions()), vars: make(map[int]smt.BoolVar, len(j.ids))}
	for _, id := range j.ids {
		m.vars[id] = m.solver.BoolVar(fmt.Sprintf("%s_%d", j.kind, id))
	}
	m.solver.AssertAtMostK(m.all(), j.budget)
	for _, id := range j.excluded {
		m.solver.Assert(smt.Not(smt.B(m.vars[id])))
	}
	for _, id := range j.required {
		m.solver.Assert(smt.B(m.vars[id]))
	}
	// Eq. 30 (as in the paper, a search-space reduction: architectures
	// outside it may still protect the grid but are never proposed).
	for _, p := range j.pairs {
		m.solver.Assert(smt.Or(smt.Not(smt.B(m.vars[p[0]])), smt.Not(smt.B(m.vars[p[1]]))))
	}
	for _, cl := range cube {
		f := smt.B(m.vars[cl.bus])
		if !cl.secured {
			f = smt.Not(f)
		}
		m.solver.Assert(f)
	}
	return m
}

// all returns every selector, in ID order.
func (m *selectionModel) all() []smt.Formula {
	fs := make([]smt.Formula, 0, len(m.sp.ids))
	for _, id := range m.sp.ids {
		fs = append(fs, smt.B(m.vars[id]))
	}
	return fs
}

// requireFullBudget opens the full-budget phase: candidates must use the
// entire budget, which with subset blocking accelerates convergence. It is
// retracted (relaxBudget) when the full-budget space is exhausted, since
// Eq. 30 pruning can make full-size candidates infeasible while smaller
// ones work.
func (m *selectionModel) requireFullBudget(k int) {
	m.solver.Push()
	m.solver.AssertAtLeastK(m.all(), k)
	m.fullBudget = true
}

// relaxBudget pops the full-budget constraint. Blocking clauses asserted
// inside the popped scope are re-asserted at the base scope: a failed
// candidate stays failed regardless of the budget constraint.
func (m *selectionModel) relaxBudget() error {
	m.fullBudget = false
	if err := m.solver.Pop(); err != nil {
		return fmt.Errorf("synth: relax budget: %w", err)
	}
	for _, fs := range m.blocked {
		m.solver.Assert(smt.Or(fs...))
	}
	return nil
}

// next solves F_Secure. The returned status distinguishes an exhausted
// candidate space (Unsat) from a solver that gave up (Unknown, with why
// carrying the cause).
func (m *selectionModel) next(ctx context.Context) (ids []int, stats smt.Stats, status smt.Status, why error, err error) {
	if m.sp.resetPhases {
		// Enumeration diversity: without this, the persistent solver's
		// saved phases walk each re-solve to a near neighbor of the
		// just-blocked candidate.
		m.solver.ResetPhases()
	}
	res, err := m.solver.CheckContext(ctx)
	if err != nil {
		return nil, smt.Stats{}, smt.Unknown, nil, fmt.Errorf("synth: candidate selection: %w", err)
	}
	if res.Status != smt.Sat {
		return nil, res.Stats, res.Status, res.Why, nil
	}
	for _, id := range m.sp.ids {
		if res.Bool(m.vars[id]) {
			ids = append(ids, id)
		}
	}
	return ids, res.Stats, smt.Sat, nil, nil
}

// block asserts that every later candidate secures at least one of ids —
// the hitting-set refinement learnt from a witness attack homed exactly at
// them, which collapses Algorithm 1's iteration count without losing
// completeness. IDs outside the space are dropped.
func (m *selectionModel) block(ids []int) {
	fs := make([]smt.Formula, 0, len(ids))
	for _, id := range ids {
		if v, ok := m.vars[id]; ok {
			fs = append(fs, smt.B(v))
		}
	}
	m.assertBlock(fs)
}

// blockBySubset removes a failed candidate and all of its subsets: securing
// fewer IDs can never help, so the next candidate must include one outside
// the failed set (the fallback when a witness has no support).
func (m *selectionModel) blockBySubset(failed []int) {
	in := make(map[int]bool, len(failed))
	for _, id := range failed {
		in[id] = true
	}
	fs := make([]smt.Formula, 0, len(m.sp.ids)-len(failed))
	for _, id := range m.sp.ids {
		if !in[id] {
			fs = append(fs, smt.B(m.vars[id]))
		}
	}
	m.assertBlock(fs)
}

func (m *selectionModel) assertBlock(fs []smt.Formula) {
	m.blocked = append(m.blocked, fs)
	m.solver.Assert(smt.Or(fs...))
}

// worker runs the candidate loop on its own attack models — one
// long-lived incremental solver per attack scenario, so the UFDI encoding
// is lowered once and clauses learnt refuting one candidate carry over to
// the next — and keeps the progress a give-up reports.
type worker struct {
	j       *job
	attacks []*core.Model
	scens   []*core.Scenario // parallel to attacks (screening)
	writers []*proof.Writer
	paths   []string // certificate paths, parallel to writers

	pool    *supportPool  // shared supports; nil outside a cube fleet
	harvest int           // witnesses harvested per refuting verify scope
	iters   *atomic.Int64 // Algorithm 1 iterations, shared by a fleet

	selectTime, verifyTime   time.Duration
	selectStats, verifyStats smt.Stats
	best                     []int
}

// newWorker builds a worker's attack models, streaming their certificates
// to attack-<tag>-<i>.proof when the job logs proofs.
func (j *job) newWorker(tag string) (*worker, error) {
	w := &worker{j: j, scens: j.scenarios, harvest: 1, iters: new(atomic.Int64)}
	if j.proofDir != "" {
		var err error
		if w.scens, w.writers, w.paths, err = withProofWriters(j.proofDir, tag, j.scenarios); err != nil {
			return nil, err
		}
	}
	for _, sc := range w.scens {
		m, err := core.NewModel(sc)
		if err != nil {
			abortProofWriters(w.writers)
			return nil, fmt.Errorf("synth: attack model: %w", err)
		}
		w.attacks = append(w.attacks, m)
	}
	return w, nil
}

// runSequential runs the loop once over the whole space: a single worker,
// no cube, no shared pool, harvest depth 1. Certificates publish untrimmed
// at their canonical names.
func (j *job) runSequential(ctx context.Context) (ids []int, w *worker, err error) {
	ctx, cancel := j.limits.runContext(ctx)
	defer cancel()
	if w, err = j.newWorker(j.proofTag); err != nil {
		return nil, nil, err
	}
	defer closeProofWriters(w.writers, &err)
	if ids, err = w.search(ctx, nil); err == nil && ids == nil {
		err = ErrNoArchitecture
	}
	return ids, w, err
}

// search is Algorithm 1's candidate loop inside one cube: select a
// candidate, verify it against every attack model, block it, repeat. It
// returns the verified candidate; nil and a nil error when the cube holds
// no viable candidate; or an error — a *BudgetExhaustedError when a
// deadline, the iteration cap or the per-candidate budget ran out, a hard
// failure otherwise.
func (w *worker) search(ctx context.Context, cube []cubeLit) ([]int, error) {
	sel := w.j.newSelectionModel(cube)
	seeds, cursor := w.pool.since(0)
	for _, s := range seeds {
		sel.block(s)
	}
	if w.j.fullBudgetFirst {
		sel.requireFullBudget(w.j.budget)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, w.exhausted(err)
		}
		if limit := w.j.maxIterations; limit > 0 && int(w.iters.Load()) >= limit {
			return nil, w.exhausted(fmt.Errorf("%d iterations reached: %w", limit, ErrBudgetExhausted))
		}
		start := time.Now()
		candidate, stats, status, why, err := sel.next(ctx)
		w.selectTime += time.Since(start)
		w.selectStats = stats
		if err != nil {
			return nil, err
		}
		if status == smt.Unknown {
			return nil, w.exhausted(why)
		}
		if status != smt.Sat {
			if sel.fullBudget {
				if err := sel.relaxBudget(); err != nil {
					return nil, err
				}
				continue
			}
			return nil, nil
		}
		w.iters.Add(1)
		w.best = candidate

		// Supports other workers published since the last iteration block
		// locally; one disjoint from the candidate defeats it without an
		// SMT call.
		var fresh [][]int
		fresh, cursor = w.pool.since(cursor)
		defeated := false
		for _, s := range fresh {
			sel.block(s)
			defeated = defeated || disjoint(candidate, s)
		}
		if defeated {
			continue
		}

		start = time.Now()
		resists, inconclusive, err := w.verify(ctx, sel, candidate)
		w.verifyTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		if inconclusive != nil {
			// Run-level cancellation surfaces as the run's cause, not the
			// candidate's.
			if cerr := ctx.Err(); cerr != nil {
				return nil, w.exhausted(cerr)
			}
			return nil, w.exhausted(inconclusive)
		}
		if resists {
			return candidate, nil
		}
	}
}

// verify is the verify-and-block step. The candidate is asserted in a
// pushed scope on every attack model in turn, under the escalating budget
// ladder; unsat across all of them
// means the candidate resists the attacker in every required scenario. The
// first counterexample blocks the candidate. An Unknown that survives
// escalation comes back as inconclusive.
func (w *worker) verify(ctx context.Context, sel *selectionModel, candidate []int) (resists bool, inconclusive error, err error) {
	for ai, attack := range w.attacks {
		if w.j.screen != nil {
			verdict, support := w.j.screen(ctx, w.scens[ai], w.j.overlay(candidate))
			if verdict == screen.Infeasible {
				// The relaxation proves this scenario resists the
				// candidate; its SMT model is never consulted.
				continue
			}
			if verdict == screen.FeasibleIntegral {
				// Defeated. No harvesting: deeper witnesses need the SMT
				// scope this path exists to avoid.
				w.block(sel, candidate, support)
				return false, nil, nil
			}
		}
		attack.Push()
		defeated, inconclusive, err := w.refute(ctx, sel, attack, candidate)
		if popErr := attack.Pop(); err == nil {
			err = popErr
		}
		if err != nil || inconclusive != nil || defeated {
			return false, inconclusive, err
		}
	}
	return true, nil, nil
}

// refute checks candidate against one attack model inside the scope verify
// opened. On a counterexample it blocks the witness's support and then
// harvests up to harvest−1 more witnesses from the same scope: each
// support is secured in-scope and the model re-checked, so the next witness
// cannot reuse it. Every support is a globally valid blocking clause. A
// harvested Unsat only means the candidate PLUS the harvested supports
// resist; it never upgrades the candidate itself.
func (w *worker) refute(ctx context.Context, sel *selectionModel, attack *core.Model, candidate []int) (defeated bool, inconclusive error, err error) {
	if err := attack.Assert(w.j.overlay(candidate)); err != nil {
		return false, nil, err
	}
	res, err := verifyCandidate(ctx, attack, w.j.limits.initialBudget())
	if err != nil {
		return false, nil, fmt.Errorf("synth: candidate verification: %w", err)
	}
	w.verifyStats = res.Stats
	if res.Inconclusive {
		return false, res.Why, nil
	}
	if !res.Feasible {
		return false, nil, nil
	}
	support := w.j.support(res)
	w.block(sel, candidate, support)
	for h := 1; h < w.harvest && len(support) > 0 && ctx.Err() == nil; h++ {
		if err := attack.Assert(w.j.overlay(support)); err != nil {
			return true, nil, err
		}
		res, err = verifyCandidate(ctx, attack, w.j.limits.initialBudget())
		if err != nil {
			return true, nil, fmt.Errorf("synth: harvest verification: %w", err)
		}
		if res.Inconclusive || !res.Feasible || len(w.j.support(res)) == 0 {
			break
		}
		support = w.j.support(res)
		w.block(sel, candidate, support)
	}
	return true, nil, nil
}

// block records a defeated candidate: by the witness's support when there
// is one (published to the fleet's pool), by the candidate and its subsets
// otherwise.
func (w *worker) block(sel *selectionModel, candidate, support []int) {
	if len(support) == 0 {
		sel.blockBySubset(candidate)
		return
	}
	sel.block(support)
	w.pool.publish(support)
}

// exhausted wraps a give-up cause with the worker's partial progress.
func (w *worker) exhausted(reason error) error {
	return &BudgetExhaustedError{
		BestCandidate: w.best,
		Iterations:    int(w.iters.Load()),
		SelectTime:    w.selectTime,
		VerifyTime:    w.verifyTime,
		LastStats:     w.verifyStats,
		Reason:        reason,
	}
}

// architecture is the worker's verified bus set with its progress.
func (w *worker) architecture(buses []int) *Architecture {
	return &Architecture{
		SecuredBuses: buses,
		Iterations:   int(w.iters.Load()),
		SelectTime:   w.selectTime,
		VerifyTime:   w.verifyTime,
		SelectStats:  w.selectStats,
		VerifyStats:  w.verifyStats,
	}
}

// withProofWriters rewires attack scenarios so each verification solver logs
// UNSAT certificates to <dir>/attack-<tag>-<i>.proof (tag generated when
// empty — see Requirements.ProofTag). Streams are atomic: they publish at
// those names only when closed cleanly. Scenarios are shallow-copied with
// cloned solver options, so callers' scenarios stay untouched. The caller
// owns the returned writers (closeProofWriters, abortProofWriters).
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
			abortProofWriters(writers)
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

// abortProofWriters retracts staged certificate streams: the atomic temp
// files are removed instead of published.
func abortProofWriters(writers []*proof.Writer) {
	for _, w := range writers {
		w.Abort(nil)
		w.Close()
	}
}
