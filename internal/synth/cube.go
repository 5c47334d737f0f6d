package synth

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"segrid/internal/core"
	"segrid/internal/proof"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// harvestDepth is the number of counterexamples a cube worker extracts from
// one candidate's verification scope before moving on: after an attack with
// support S is found, S is secured inside the same pushed scope and the model
// re-checked, forcing the next witness to a disjoint support. Each support is
// a globally valid blocking clause (an attack homed exactly at S defeats any
// candidate securing none of S), so deeper harvesting trades cheap incremental
// re-checks for fewer Algorithm 1 iterations everywhere.
const harvestDepth = 8

// DefaultWorkers returns the default cube worker count: GOMAXPROCS at call
// time, clamped to [1, maxDefaultWorkers] so that on a large host the
// default does not fan one synthesis across every core.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxDefaultWorkers {
		n = maxDefaultWorkers
	}
	return n
}

const maxDefaultWorkers = 8

// cubeLit fixes one pivot bus's selection bit for a cube.
type cubeLit struct {
	bus     int
	secured bool
}

// supportPool shares counterexample supports across cube workers. Entries are
// append-only and deduplicated; every entry means "any viable candidate must
// secure at least one of these buses" and is valid in every cube — and, more
// broadly, in every synthesis run over the same attack model: supports are
// facts about the attack scenarios alone, independent of the defender's
// budget or bus exclusions, which only shape the selection side.
type supportPool struct {
	mu      sync.Mutex
	seen    map[string]bool
	clauses [][]int
}

func newSupportPool() *supportPool { return &supportPool{seen: make(map[string]bool)} }

// SupportPool is the exported handle to a counterexample-support pool, for
// callers (the analytics service) that persist one across synthesis runs via
// Requirements.SupportPool. All operations are safe for concurrent use, so
// one pool may serve overlapping runs.
type SupportPool = supportPool

// NewSupportPool allocates an empty shareable support pool.
func NewSupportPool() *SupportPool { return newSupportPool() }

// Size reports the number of supports accumulated so far.
func (p *supportPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clauses)
}

// publish adds a support (already ascending); it reports whether it was new.
func (p *supportPool) publish(s []int) bool {
	if len(s) == 0 {
		return false
	}
	key := fmt.Sprint(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen[key] {
		return false
	}
	p.seen[key] = true
	p.clauses = append(p.clauses, append([]int(nil), s...))
	return true
}

// since returns the entries published after cursor plus the new cursor.
// Entries are never mutated after publication, so the returned slice can be
// read without further locking.
func (p *supportPool) since(cursor int) ([][]int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clauses[cursor:], len(p.clauses)
}

// pickPivots chooses up to k cube pivot buses: high measurement degree (so
// the sign constraint splits the candidate space meaningfully), never
// operator-excluded or -required (those bits are already fixed), and — when
// Eq. 30 pruning is on — pairwise non-adjacent in the pruning graph, so no
// cube is empty by construction.
func pickPivots(req *Requirements, k int) []int {
	sc := req.Attack
	sys := sc.System()
	banned := make(map[int]bool, len(req.ExcludedBuses)+len(req.RequiredBuses))
	for _, j := range req.ExcludedBuses {
		banned[j] = true
	}
	for _, j := range req.RequiredBuses {
		banned[j] = true
	}
	adj := make(map[int][]int)
	if req.Prune {
		for _, ln := range sys.Lines {
			if sc.Meas.Taken[sys.ForwardFlowMeas(ln.ID)] || sc.Meas.Taken[sys.BackwardFlowMeas(ln.ID)] {
				adj[ln.From] = append(adj[ln.From], ln.To)
				adj[ln.To] = append(adj[ln.To], ln.From)
			}
		}
	}
	type busDeg struct{ bus, deg int }
	degs := make([]busDeg, 0, sys.Buses)
	for j := 1; j <= sys.Buses; j++ {
		if banned[j] {
			continue
		}
		d := 0
		for _, id := range sys.MeasAtBus(j) {
			if sc.Meas.Taken[id] {
				d++
			}
		}
		degs = append(degs, busDeg{j, d})
	}
	sort.Slice(degs, func(a, b int) bool {
		if degs[a].deg != degs[b].deg {
			return degs[a].deg > degs[b].deg
		}
		return degs[a].bus < degs[b].bus
	})
	pivots := make([]int, 0, k)
	chosen := make(map[int]bool, k)
	for _, bd := range degs {
		if len(pivots) == k {
			break
		}
		conflict := false
		for _, nb := range adj[bd.bus] {
			if chosen[nb] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		pivots = append(pivots, bd.bus)
		chosen[bd.bus] = true
	}
	return pivots
}

// planCubes partitions the candidate space into sign cubes over the pivot
// buses: 2^p cubes for p pivots, p chosen so there is at least one cube per
// worker when enough pivots exist. One worker gets the trivial single cube.
func planCubes(req *Requirements, workers int) [][]cubeLit {
	if workers < 2 {
		return [][]cubeLit{nil}
	}
	k := bits.Len(uint(workers - 1))
	pivots := pickPivots(req, k)
	n := 1 << len(pivots)
	cubes := make([][]cubeLit, n)
	for c := 0; c < n; c++ {
		cube := make([]cubeLit, len(pivots))
		for j, p := range pivots {
			cube[j] = cubeLit{bus: p, secured: c&(1<<j) != 0}
		}
		cubes[c] = cube
	}
	return cubes
}

// disjoint reports whether the sorted candidate secures none of the clause's
// buses — i.e. the blocking clause defeats the candidate outright.
func disjoint(candidate, clause []int) bool {
	for _, j := range clause {
		i := sort.SearchInts(candidate, j)
		if i < len(candidate) && candidate[i] == j {
			return false
		}
	}
	return true
}

// cubeWorker is the per-worker state of a cube-and-conquer run.
type cubeWorker struct {
	id      int
	attacks []*core.Model
	scens   []*core.Scenario // attack scenarios, parallel to attacks (screening)
	writers []*proof.Writer
	paths   []string

	selectTime  time.Duration
	verifyTime  time.Duration
	selectStats smt.Stats
	verifyStats smt.Stats
	best        []int
	emptyCubes  int
	stopErr     error // *BudgetExhaustedError or hard error; nil otherwise
}

// cubeRun is the shared state of a cube-and-conquer run.
type cubeRun struct {
	req     *Requirements
	pol     policy
	cubes   [][]cubeLit
	pool    *supportPool
	nextCub atomic.Int64
	iters   atomic.Int64
	winner  atomic.Int64 // worker id + 1; 0 = unclaimed
	arch    *Architecture
	cancel  context.CancelFunc
}

// claimWin publishes w's verified architecture if no other worker won first.
func (r *cubeRun) claimWin(w *cubeWorker, candidate []int) bool {
	if !r.winner.CompareAndSwap(0, int64(w.id)+1) {
		return false
	}
	r.arch = &Architecture{
		SecuredBuses: candidate,
		SelectTime:   w.selectTime,
		VerifyTime:   w.verifyTime,
		SelectStats:  w.selectStats,
		VerifyStats:  w.verifyStats,
	}
	r.cancel()
	return true
}

// synthesizeCubes runs Algorithm 1 cube-and-conquer style: the candidate
// space is split into sign cubes over pivot buses, workers drain the cube
// queue, and each worker runs the selection/verification loop on its own
// incremental solver instances. Counterexample supports harvested by any
// worker become blocking clauses for all of them, so the fleet converges on
// the hitting set together instead of rediscovering each attack per cube.
func synthesizeCubes(ctx context.Context, req *Requirements, workers int) (res *Architecture, err error) {
	ctx, cancelRun := req.Limits.runContext(ctx)
	defer cancelRun()

	pool := req.SupportPool
	if pool == nil {
		pool = newSupportPool()
	}
	run := &cubeRun{
		req:   req,
		pol:   req.Limits.policy(),
		cubes: planCubes(req, workers),
		pool:  pool,
	}
	if workers > len(run.cubes) {
		workers = len(run.cubes)
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run.cancel = cancel

	tag := req.ProofTag
	if tag == "" && req.ProofDir != "" {
		tag = proof.UniqueName("", "")
	}

	scenarios := append([]*core.Scenario{req.Attack}, req.ExtraAttacks...)
	ws := make([]*cubeWorker, workers)
	for i := range ws {
		w := &cubeWorker{id: i}
		scs := scenarios
		if req.ProofDir != "" {
			scs, w.writers, w.paths, err = withProofWriters(req.ProofDir, fmt.Sprintf("%s-w%d", tag, i), scenarios)
			if err != nil {
				for _, prev := range ws[:i] {
					abortProofWriters(prev.writers)
				}
				return nil, err
			}
		}
		for _, sc := range scs {
			m, merr := core.NewModel(sc)
			if merr != nil {
				for _, prev := range ws[:i+1] {
					abortProofWriters(prev.writers)
				}
				return nil, fmt.Errorf("synth: attack model: %w", merr)
			}
			w.attacks = append(w.attacks, m)
			w.scens = append(w.scens, sc)
		}
		ws[i] = w
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *cubeWorker) {
			defer wg.Done()
			run.workerLoop(raceCtx, w)
		}(w)
	}
	wg.Wait()

	// Certificate finalization: the winner's streams publish (trimmed, at
	// the canonical names); every other stream is retracted, so a killed or
	// cancelled worker never leaves a half-written certificate behind.
	winner := int(run.winner.Load()) - 1
	var proofFiles []string
	for i, w := range ws {
		if i != winner {
			abortProofWriters(w.writers)
			continue
		}
		closeProofWriters(w.writers, &err)
		if err != nil {
			return nil, err
		}
		for si, staged := range w.paths {
			if _, terr := proof.TrimFile(staged); terr != nil {
				return nil, fmt.Errorf("synth: trimming winner certificate: %w", terr)
			}
			final := filepath.Join(req.ProofDir, fmt.Sprintf("attack-%s-%d.proof", tag, si))
			if rerr := os.Rename(staged, final); rerr != nil {
				return nil, fmt.Errorf("synth: publishing winner certificate: %w", rerr)
			}
			proofFiles = append(proofFiles, final)
		}
	}

	iters := int(run.iters.Load())
	if winner >= 0 {
		arch := run.arch
		arch.Iterations = iters
		arch.Workers = workers
		arch.SelectStats.Workers = workers
		arch.VerifyStats.Workers = workers
		arch.ProofFiles = proofFiles
		return arch, nil
	}

	// No winner: a hard worker error outranks everything; otherwise the run
	// either proved every cube empty (their union is the whole candidate
	// space) or gave up somewhere.
	allEmpty := true
	processed := 0
	var exhausted *BudgetExhaustedError
	for _, w := range ws {
		processed += w.emptyCubes
		if w.stopErr == nil {
			continue
		}
		var be *BudgetExhaustedError
		if errors.As(w.stopErr, &be) {
			allEmpty = false
			if exhausted == nil {
				exhausted = be
			}
			continue
		}
		return nil, w.stopErr
	}
	if allEmpty && processed == len(run.cubes) {
		return nil, ErrNoArchitecture
	}
	if exhausted == nil {
		reason := ctx.Err()
		if reason == nil {
			reason = ErrBudgetExhausted
		}
		exhausted = &BudgetExhaustedError{Reason: reason}
	}
	exhausted.Iterations = iters
	return nil, exhausted
}

// abortProofWriters retracts staged certificate streams (loser/failed
// workers): the atomic temp files are removed instead of published.
func abortProofWriters(writers []*proof.Writer) {
	for _, w := range writers {
		w.Abort(nil)
		w.Close()
	}
}

// workerLoop drains the cube queue. Each cube gets a fresh selection model
// (seeded with every support in the pool); attack models persist across the
// worker's cubes, so clauses learnt refuting one cube's candidates carry
// over to the next.
func (r *cubeRun) workerLoop(ctx context.Context, w *cubeWorker) {
	for {
		if ctx.Err() != nil {
			if r.winner.Load() == 0 {
				w.stopErr = r.exhaustedFor(w, ctx.Err())
			}
			return
		}
		ci := int(r.nextCub.Add(1)) - 1
		if ci >= len(r.cubes) {
			return
		}
		done, err := r.runCube(ctx, w, r.cubes[ci])
		if err != nil {
			if r.winner.Load() == 0 {
				w.stopErr = err
			}
			return
		}
		if done {
			return // this worker won
		}
		w.emptyCubes++
	}
}

// exhaustedFor wraps a give-up cause with the worker's partial progress.
func (r *cubeRun) exhaustedFor(w *cubeWorker, reason error) error {
	return &BudgetExhaustedError{
		BestCandidate: w.best,
		Iterations:    int(r.iters.Load()),
		SelectTime:    w.selectTime,
		VerifyTime:    w.verifyTime,
		LastStats:     w.verifyStats,
		Reason:        reason,
	}
}

// runCube runs the selection/verification loop inside one cube. It returns
// (true, nil) when this worker's verified architecture was published,
// (false, nil) when the cube is exhausted (no viable candidate in it), and a
// non-nil error — *BudgetExhaustedError or a hard failure — otherwise.
func (r *cubeRun) runCube(ctx context.Context, w *cubeWorker, cube []cubeLit) (bool, error) {
	req := r.req
	selection, err := newSelectionModel(req)
	if err != nil {
		return false, err
	}
	for _, cl := range cube {
		f := smt.B(selection.sb[cl.bus])
		if !cl.secured {
			f = smt.Not(f)
		}
		selection.solver.Assert(f)
	}
	seeds, cursor := r.pool.since(0)
	for _, s := range seeds {
		selection.blockByAttack(s)
	}

	fullBudget := true
	selection.requireFullBudget(req.MaxSecuredBuses)
	for {
		if err := ctx.Err(); err != nil {
			return false, r.exhaustedFor(w, err)
		}
		if req.MaxIterations > 0 && int(r.iters.Load()) >= req.MaxIterations {
			return false, r.exhaustedFor(w, fmt.Errorf("%d iterations reached: %w", req.MaxIterations, ErrBudgetExhausted))
		}
		start := time.Now()
		candidate, selStats, selStatus, selWhy, err := selection.nextCandidate(ctx)
		w.selectTime += time.Since(start)
		w.selectStats = selStats
		if err != nil {
			return false, err
		}
		if selStatus == smt.Unknown {
			return false, r.exhaustedFor(w, selWhy)
		}
		if selStatus != smt.Sat {
			if fullBudget {
				fullBudget = false
				if err := selection.relaxBudget(); err != nil {
					return false, fmt.Errorf("synth: relax budget: %w", err)
				}
				continue
			}
			return false, nil // cube exhausted
		}
		r.iters.Add(1)
		w.best = candidate

		// Pre-screen against supports other workers published since the
		// last iteration: a support disjoint from the candidate defeats it
		// without an SMT call.
		var fresh [][]int
		fresh, cursor = r.pool.since(cursor)
		defeated := false
		for _, s := range fresh {
			selection.blockByAttack(s)
			if disjoint(candidate, s) {
				defeated = true
			}
		}
		if defeated {
			continue
		}

		start = time.Now()
		resists, inconclusive, err := r.verifyAndHarvest(ctx, w, selection, candidate)
		w.verifyTime += time.Since(start)
		if err != nil {
			return false, err
		}
		if inconclusive != nil {
			if cerr := ctx.Err(); cerr != nil {
				return false, r.exhaustedFor(w, cerr)
			}
			return false, r.exhaustedFor(w, inconclusive)
		}
		if resists {
			if r.claimWin(w, candidate) {
				return true, nil
			}
			// Raced: another worker published first; stop quietly.
			return false, r.exhaustedFor(w, context.Canceled)
		}
	}
}

// verifyAndHarvest verifies one candidate against every attack model and, on
// a counterexample, harvests up to harvestDepth disjoint-support attacks from
// the same verification scope: each witness's support is secured in-scope and
// the model re-checked, so consecutive witnesses cannot reuse an already-seen
// support. Every support is published to the shared pool and asserted as a
// blocking clause locally. A harvested Unsat only means the candidate PLUS
// the harvested supports resist — it never upgrades the candidate itself.
func (r *cubeRun) verifyAndHarvest(ctx context.Context, w *cubeWorker, selection *selectionModel, candidate []int) (resists bool, inconclusive error, err error) {
	candCtx, cancelCand := r.req.Limits.candidateContext(ctx)
	defer cancelCand()
	for ai, attack := range w.attacks {
		if screeningOn(r.req) {
			verdict, support := screenCandidate(candCtx, w.scens[ai], candidate)
			if verdict == screen.Infeasible {
				continue // relaxation-certified resistance: skip the SMT model
			}
			if verdict == screen.FeasibleIntegral {
				// Definitively defeated; the witness support blocks locally
				// and publishes to every cube. No harvesting — deeper
				// witnesses need the SMT scope this path exists to avoid.
				if len(support) == 0 {
					selection.blockBySubset(candidate)
				} else {
					selection.blockByAttack(support)
					r.pool.publish(support)
				}
				return false, nil, nil
			}
		}
		attack.Solver().Push()
		if err := attack.AssertBusesSecured(candidate); err != nil {
			return false, nil, err
		}
		res, err := r.pol.verifyCandidate(candCtx, attack)
		if err != nil {
			attack.Solver().Pop()
			return false, nil, fmt.Errorf("synth: candidate verification: %w", err)
		}
		w.verifyStats = res.Stats
		if res.Inconclusive {
			if popErr := attack.Solver().Pop(); popErr != nil {
				return false, nil, popErr
			}
			return false, res.Why, nil
		}
		if !res.Feasible {
			if popErr := attack.Solver().Pop(); popErr != nil {
				return false, nil, popErr
			}
			continue
		}

		// Counterexample: block, publish, and harvest deeper witnesses.
		support := res.CompromisedBuses
		if len(support) == 0 {
			selection.blockBySubset(candidate)
		} else {
			selection.blockByAttack(support)
			r.pool.publish(support)
		}
		for h := 1; h < harvestDepth && len(support) > 0; h++ {
			if candCtx.Err() != nil {
				break
			}
			if err := attack.AssertBusesSecured(support); err != nil {
				attack.Solver().Pop()
				return false, nil, err
			}
			res, err = r.pol.verifyCandidate(candCtx, attack)
			if err != nil {
				attack.Solver().Pop()
				return false, nil, fmt.Errorf("synth: harvest verification: %w", err)
			}
			if res.Inconclusive || !res.Feasible || len(res.CompromisedBuses) == 0 {
				break
			}
			support = res.CompromisedBuses
			selection.blockByAttack(support)
			r.pool.publish(support)
		}
		if popErr := attack.Solver().Pop(); popErr != nil {
			return false, nil, popErr
		}
		return false, nil, nil
	}
	return true, nil, nil
}
