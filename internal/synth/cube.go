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

	"segrid/internal/proof"
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

// supportPool shares counterexample supports across one run's cube workers.
// Entries are append-only and deduplicated; every entry means "any viable
// candidate must secure at least one of these buses" and is valid in every
// cube: supports are facts about the attack scenarios alone, independent of
// the defender's budget or bus exclusions, which only shape the selection
// side.
type supportPool struct {
	mu      sync.Mutex
	seen    map[string]bool
	clauses [][]int
}

func newSupportPool() *supportPool { return &supportPool{seen: make(map[string]bool)} }

// publish adds a support (already ascending) unless it is already pooled.
// A nil pool (a run outside a cube fleet) shares nothing.
func (p *supportPool) publish(s []int) {
	if p == nil || len(s) == 0 {
		return
	}
	key := fmt.Sprint(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seen[key] {
		p.seen[key] = true
		p.clauses = append(p.clauses, append([]int(nil), s...))
	}
}

// since returns the entries published after cursor plus the new cursor.
// Entries are never mutated after publication, so the returned slice can be
// read without further locking. A nil pool has no entries.
func (p *supportPool) since(cursor int) ([][]int, int) {
	if p == nil {
		return nil, 0
	}
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
	for _, p := range busJob(req).pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
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

// cubeWorker is one worker of a cube-and-conquer fleet: the shared
// candidate loop plus the worker's cube bookkeeping.
type cubeWorker struct {
	*worker
	id         int
	emptyCubes int
	stopErr    error // *BudgetExhaustedError or hard error; nil otherwise
}

// cubeRun is the shared state of a cube-and-conquer run.
type cubeRun struct {
	cubes   [][]cubeLit
	nextCub atomic.Int64
	iters   atomic.Int64
	winner  atomic.Int64 // worker id + 1; 0 = unclaimed
	arch    *Architecture
	cancel  context.CancelFunc
}

// claimWin publishes w's verified architecture if no other worker won first.
func (r *cubeRun) claimWin(w *cubeWorker, candidate []int) {
	if r.winner.CompareAndSwap(0, int64(w.id)+1) {
		r.arch = w.architecture(candidate)
		r.cancel()
	}
}

// synthesizeCubes runs Algorithm 1 cube-and-conquer style: the candidate
// space is split into sign cubes over pivot buses, workers drain the cube
// queue, and each worker runs the shared candidate loop on its own
// incremental solver instances. Counterexample supports harvested by any
// worker become blocking clauses for all of them, so the fleet converges on
// the hitting set together instead of rediscovering each attack per cube.
func synthesizeCubes(ctx context.Context, req *Requirements, j *job, workers int) (res *Architecture, err error) {
	ctx, cancelRun := j.limits.runContext(ctx)
	defer cancelRun()

	pool := newSupportPool()
	run := &cubeRun{cubes: planCubes(req, workers)}
	if workers > len(run.cubes) {
		workers = len(run.cubes)
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run.cancel = cancel

	tag := j.proofTag
	if tag == "" && j.proofDir != "" {
		tag = proof.UniqueName("", "")
	}
	ws := make([]*cubeWorker, workers)
	for i := range ws {
		w, err := j.newWorker(fmt.Sprintf("%s-w%d", tag, i))
		if err != nil {
			for _, prev := range ws[:i] {
				abortProofWriters(prev.writers)
			}
			return nil, err
		}
		w.pool, w.harvest, w.iters = pool, harvestDepth, &run.iters
		ws[i] = &cubeWorker{worker: w, id: i}
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
			final := filepath.Join(j.proofDir, fmt.Sprintf("attack-%s-%d.proof", tag, si))
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

// workerLoop drains the cube queue. Each cube gets a fresh selection model
// (seeded with every support in the pool); attack models persist across the
// worker's cubes, so clauses learnt refuting one cube's candidates carry
// over to the next. A worker whose verified candidate loses the winner
// claim to another worker stops quietly.
func (r *cubeRun) workerLoop(ctx context.Context, w *cubeWorker) {
	for {
		if ctx.Err() != nil {
			if r.winner.Load() == 0 {
				w.stopErr = w.exhausted(ctx.Err())
			}
			return
		}
		ci := int(r.nextCub.Add(1)) - 1
		if ci >= len(r.cubes) {
			return
		}
		candidate, err := w.search(ctx, r.cubes[ci])
		if err != nil {
			if r.winner.Load() == 0 {
				w.stopErr = err
			}
			return
		}
		if candidate != nil {
			r.claimWin(w, candidate)
			return
		}
		w.emptyCubes++
	}
}
