package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"runtime"
	"sort"
	"time"

	"segrid/internal/acflow"
	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/service"
	"segrid/internal/smt"
	"segrid/internal/synth"
)

// BenchEntry is one workload's measurement in the benchmark trajectory set.
// The JSON shape is stable across PRs so that successive BENCH_<n>.json files
// can be diffed: ns/op and allocs/op track the perf trajectory, the solver
// counters explain it (a time change with unchanged conflict/pivot counts is
// an arithmetic/allocator change; a counter change means the search moved).
type BenchEntry struct {
	Name         string `json:"name"`
	Iters        int    `json:"iters"`
	NsPerOp      int64  `json:"ns_per_op"`
	AllocsPerOp  int64  `json:"allocs_per_op"`
	BytesPerOp   int64  `json:"bytes_per_op"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Pivots       int64  `json:"pivots"`
	FastOps      int64  `json:"fast_ops"`
	BigOps       int64  `json:"big_ops"`
	// FreshNsPerOp/FreshAllocsPerOp are the incremental-vs-fresh ablation
	// columns: the same workload rerun with smt.Options.FreshPerCheck set, so
	// each Check rebuilds the encoding from scratch instead of reusing the
	// persistent solver instance. Only the synthesis workloads carry them —
	// single-Check workloads are identical under both modes.
	FreshNsPerOp     int64 `json:"fresh_ns_per_op,omitempty"`
	FreshAllocsPerOp int64 `json:"fresh_allocs_per_op,omitempty"`
	// ProofNsPerOp is the proof-logging overhead column: the same workload
	// rerun with an UNSAT certificate stream attached, written to an
	// in-memory buffer so the cost measured is record serialization, not
	// disk. The Fig. 4(a) and unsat/ verification rows carry it.
	ProofNsPerOp int64 `json:"proof_ns_per_op,omitempty"`
	// ProofBytes/ProofTrimmedBytes are the certificate-size columns for the
	// proof-logging rerun: the stream's serialized length and its length
	// after the backward trimming pass. Rows that end Sat leave (almost)
	// nothing reachable from an Unsat answer, so their trimmed streams are
	// near-empty; the unsat/ rows measure the realistic trimming case.
	ProofBytes        int64 `json:"proof_bytes,omitempty"`
	ProofTrimmedBytes int64 `json:"proof_trimmed_bytes,omitempty"`
	// CubeNsPerOp is the parallel-synthesis column: the same workload run
	// in cube-and-conquer mode at Workers workers (pivot-bus sign cubes,
	// shared counterexample-support pool, per-cube harvesting). The fig5a
	// rows carry it.
	CubeNsPerOp int64 `json:"cube_ns_per_op,omitempty"`
	// Workers is the worker count behind the cube column.
	Workers int `json:"workers,omitempty"`
	// SweepNsPerOp is the batched-sweep column: the same scenario family
	// answered by one service-layer /v1/sweep (one pooled encoder per
	// compatibility group, per-item scoped overlays) instead of N
	// independent verifications each paying a cold encoder build. The
	// headline ns/op of the sweep/ rows is the sequential baseline;
	// SweepBuilds and SeqBuilds are the encoder builds each mode paid.
	SweepNsPerOp int64 `json:"sweep_ns_per_op,omitempty"`
	SweepBuilds  int64 `json:"sweep_builds,omitempty"`
	SeqBuilds    int64 `json:"seq_builds,omitempty"`
	// ScreenNsPerOp/ScreenRate are the LP-relaxation screening columns: the
	// same batched sweep answered by a screening-enabled service (definitive
	// relaxation verdicts bypass encoder checkout and the SMT solver
	// entirely), and the fraction of items the screen answered definitively.
	// Per-item verdicts are asserted equal to the sequential baseline's, so
	// the column only exists when screening changed no answer. The sweep/
	// rows carry them.
	ScreenNsPerOp int64   `json:"screen_ns_per_op,omitempty"`
	ScreenRate    float64 `json:"screen_rate,omitempty"`
	// MixedP95Ms is the work-unit scheduler's fairness column: a stream of
	// small verifies issued behind a large multi-group sweep on a
	// two-worker scheduler, reporting the p95 small-verify latency in
	// milliseconds (pooled across iterations). The headline ns/op of the
	// mixed/ row is the whole mixed scenario; per-item and per-verify
	// verdicts are asserted equal to an idle sequential baseline inside the
	// harness, so the column only exists when fairness changed no answer.
	MixedP95Ms float64 `json:"mixed_p95_ms,omitempty"`
}

// Iteration policy for each workload: at least benchMinIters runs, then keep
// going until benchMinTime has elapsed or benchMaxIters is reached. The
// slowest workload (ieee118 synthesis under the fresh-per-Check ablation)
// takes a few seconds per run, so the whole set finishes in about a minute.
const (
	benchMinIters = 3
	benchMaxIters = 60
	benchMinTime  = 400 * time.Millisecond

	// Paired (base vs proof) workloads measure a few-percent relative
	// effect, which demands more pairs than a single-variant row needs
	// iterations: a burst of machine load that swallows one whole iteration
	// skews a 3-pair median, so paired rows run longer and with a higher
	// floor.
	benchPairMinIters = 5
	benchPairMinTime  = 8 * benchMinTime

	// Target duration of one timed sample in a paired measurement; fast
	// workloads batch several ops per sample to reach it (see measurePaired).
	benchPairSampleTime = 20 * time.Millisecond

	// benchWorkers is the worker count behind the cube_ns_per_op column,
	// fixed (rather than GOMAXPROCS-derived) so the
	// trajectory is comparable across machines.
	benchWorkers = 4
)

// benchSynthBudgets are known-feasible operator budgets per system (greedy
// baseline size + 2; see synthRequirements), fixed so the synthesis workloads
// measure a stable instance rather than re-deriving the budget each run.
var benchSynthBudgets = map[string]int{
	"ieee14": 7, "ieee30": 12, "ieee57": 23, "ieee118": 43,
}

// measureWorkload times repeated runs of one workload and captures per-op
// allocation counts via runtime.MemStats deltas around the timed loop. The
// reported ns/op is the *median* of the per-iteration times, not the mean:
// the set runs on shared machines where a scheduler stall or a warm-up
// iteration can dominate a contiguous-window mean (especially for the large
// systems that only reach the 3-iteration floor), and the median discards
// exactly those outliers. The solver counters are taken from the final run
// (they are per-instance, not per-loop). Allocations by the harness itself
// (scenario construction) are included, matching what `go test -benchmem`
// reports for the equivalent benchmarks.
func measureWorkload(name string, out io.Writer, run func() (smt.Stats, error)) (BenchEntry, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last smt.Stats
	var iterNs []int64
	iters := 0
	for {
		iterStart := time.Now()
		st, err := run()
		if err != nil {
			return BenchEntry{}, fmt.Errorf("%s: %w", name, err)
		}
		iterNs = append(iterNs, time.Since(iterStart).Nanoseconds())
		last = st
		iters++
		if iters >= benchMaxIters || (iters >= benchMinIters && time.Since(start) >= benchMinTime) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	n := int64(iters)
	e := BenchEntry{
		Name:         name,
		Iters:        iters,
		NsPerOp:      medianNs(iterNs),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / n,
		Conflicts:    last.Conflicts,
		Decisions:    last.Decisions,
		Propagations: last.Propagations,
		Pivots:       last.Pivots,
		FastOps:      last.FastOps,
		BigOps:       last.BigOps,
	}
	fmt.Fprintf(out, "%-18s %6d %14d %12d %12d %10d %10d %12d %8d\n",
		e.Name, e.Iters, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp,
		e.Conflicts, e.Pivots, e.FastOps, e.BigOps)
	return e, nil
}

// medianNs returns the median of the per-iteration times (mean of the two
// middle values for even counts).
func medianNs(ns []int64) int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// measurePaired times two variants of one workload in alternation (ABBA
// order: A, B, B, A, A, B, …) instead of two sequential windows. The proof-overhead
// column divides one variant's time by the other's, and on shared machines
// load noise between and within two sequential windows dominates the
// few-percent effect being measured; alternation exposes both variants to
// the same conditions, and the B variant's ns/op is reported as A's median
// scaled by the median of the per-pair B/A ratios — the paired estimator,
// which cancels bursts that would skew either variant's own median.
// Per-variant allocation counts come from MemStats deltas around each
// iteration (the set runs workloads sequentially, so the deltas are
// attributable). Deliberately no forced GC between iterations: resetting
// the pacer each iteration makes whole-GC-cycle boundaries deterministic,
// pinning an entire extra cycle on whichever variant allocates just past a
// trigger threshold; with free-running collection the boundaries drift and
// cycle costs amortize over both variants.
func measurePaired(nameA, nameB string, out io.Writer, runA, runB func() (smt.Stats, error)) (BenchEntry, BenchEntry, error) {
	runtime.GC()
	names := [2]string{nameA, nameB}
	runs := [2]func() (smt.Stats, error){runA, runB}

	// Calibrate a batch size so every timed sample spans several GC cycles:
	// a collection landing inside a single sub-millisecond op distorts that
	// op by tens of percent, and since the logging variant allocates a bit
	// more (hosting a few more cycles), per-op samples would bias the ratio
	// rather than just widen it. Batching is how testing.B amortizes the
	// same quantization. The calibration runs also serve as warm-up.
	if _, err := runA(); err != nil {
		return BenchEntry{}, BenchEntry{}, fmt.Errorf("%s: %w", nameA, err)
	}
	calStart := time.Now()
	if _, err := runA(); err != nil {
		return BenchEntry{}, BenchEntry{}, fmt.Errorf("%s: %w", nameA, err)
	}
	batch := 1
	if est := time.Since(calStart); est > 0 && est < benchPairSampleTime {
		if batch = int(benchPairSampleTime / est); batch > 64 {
			batch = 64
		}
	}

	var ns [2][]int64
	var allocs, bytesAlloc [2]int64
	var last [2]smt.Stats
	var before, after runtime.MemStats
	start := time.Now()
	iters := 0
	for {
		// ABBA ordering: reverse every other pair so that neither variant
		// always runs in the same slot. The GC trigger cadence is nearly
		// periodic (both variants allocate a fixed amount per op) and can
		// phase-lock with a strictly periodic A,B,A,B schedule, pinning
		// whole collection cycles on one slot for the entire run.
		first := iters % 2
		for i := 0; i < 2; i++ {
			v := first ^ i
			runtime.ReadMemStats(&before)
			iterStart := time.Now()
			var st smt.Stats
			for b := 0; b < batch; b++ {
				var err error
				if st, err = runs[v](); err != nil {
					return BenchEntry{}, BenchEntry{}, fmt.Errorf("%s: %w", names[v], err)
				}
			}
			d := time.Since(iterStart).Nanoseconds() / int64(batch)
			runtime.ReadMemStats(&after)
			ns[v] = append(ns[v], d)
			allocs[v] += int64(after.Mallocs - before.Mallocs)
			bytesAlloc[v] += int64(after.TotalAlloc - before.TotalAlloc)
			last[v] = st
		}
		iters++
		if iters >= benchMaxIters || (iters >= benchPairMinIters && time.Since(start) >= benchPairMinTime) {
			break
		}
	}
	n := int64(iters) * int64(batch)
	ratios := make([]float64, iters)
	for i := range ratios {
		ratios[i] = float64(ns[1][i]) / float64(ns[0][i])
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		ratio = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	baseNs := medianNs(ns[0])
	perVariantNs := [2]int64{baseNs, int64(float64(baseNs) * ratio)}
	var es [2]BenchEntry
	for v := 0; v < 2; v++ {
		es[v] = BenchEntry{
			Name:         names[v],
			Iters:        iters * batch,
			NsPerOp:      perVariantNs[v],
			AllocsPerOp:  allocs[v] / n,
			BytesPerOp:   bytesAlloc[v] / n,
			Conflicts:    last[v].Conflicts,
			Decisions:    last[v].Decisions,
			Propagations: last[v].Propagations,
			Pivots:       last[v].Pivots,
			FastOps:      last[v].FastOps,
			BigOps:       last[v].BigOps,
		}
		fmt.Fprintf(out, "%-18s %6d %14d %12d %12d %10d %10d %12d %8d\n",
			es[v].Name, es[v].Iters, es[v].NsPerOp, es[v].AllocsPerOp, es[v].BytesPerOp,
			es[v].Conflicts, es[v].Pivots, es[v].FastOps, es[v].BigOps)
	}
	return es[0], es[1], nil
}

// BenchSet runs the benchmark trajectory set — the Fig. 4(a) verification
// scaling workloads, the Fig. 5(a) synthesis workloads, the Table IV
// unrestricted-attacker models, and the two SMT substrate microbenchmarks —
// and returns one BenchEntry per workload. Workloads always run sequentially
// (timing fidelity); cfg.Parallel is ignored here. cmd/benchtables writes the
// result as BENCH_<n>.json via -bench-json.
func BenchSet(cfg Config) ([]BenchEntry, error) {
	fmt.Fprintln(cfg.Out, "Benchmark set: per-workload timing, allocation and solver counters")
	fmt.Fprintf(cfg.Out, "%-18s %6s %14s %12s %12s %10s %10s %12s %8s\n",
		"workload", "iters", "ns/op", "allocs/op", "bytes/op",
		"conflicts", "pivots", "fastops", "bigops")
	var entries []BenchEntry
	add := func(name string, run func() (smt.Stats, error)) error {
		e, err := measureWorkload(name, cfg.Out, run)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	}

	// measureWithProof measures the headline (logging off) variant and the
	// certificate-streaming variant of one workload in strict alternation
	// (see measurePaired) for the proof_ns_per_op column, and records the
	// final run's certificate size before and after trimming.
	measureWithProof := func(name string, run func(pw *proof.Writer) (smt.Stats, error)) error {
		var proofBuf bytes.Buffer
		e, pe, err := measurePaired(name, name+"/proof", cfg.Out,
			func() (smt.Stats, error) { return run(nil) },
			func() (smt.Stats, error) {
				proofBuf.Reset()
				pw := proof.NewWriter(&proofBuf)
				st, err := run(pw)
				if err != nil {
					return smt.Stats{}, err
				}
				// Close rather than Flush: a per-solve Writer is the
				// production shape, and Close recycles the derivation arena.
				if err := pw.Close(); err != nil {
					return smt.Stats{}, err
				}
				return st, nil
			})
		if err != nil {
			return err
		}
		e.ProofNsPerOp = pe.NsPerOp
		e.ProofBytes = int64(proofBuf.Len())
		st, err := proof.TrimTo(io.Discard, bytes.NewReader(proofBuf.Bytes()))
		if err != nil {
			return fmt.Errorf("%s: trimming certificate: %w", name, err)
		}
		e.ProofTrimmedBytes = st.BytesAfter
		entries = append(entries, e)
		return nil
	}
	runScenario := func(sc *core.Scenario, pw *proof.Writer, wantFeasible bool) (smt.Stats, error) {
		cfg.applyBudget(sc)
		if pw != nil {
			opts := smt.DefaultOptions()
			if sc.Options != nil {
				opts = *sc.Options
			}
			opts.Proof = pw
			sc.Options = &opts
		}
		res, err := core.Verify(sc)
		if err != nil {
			return smt.Stats{}, err
		}
		if res.Inconclusive {
			return smt.Stats{}, fmt.Errorf("inconclusive verification (%v)", res.Why)
		}
		if res.Feasible != wantFeasible {
			return smt.Stats{}, fmt.Errorf("feasible = %v, want %v", res.Feasible, wantFeasible)
		}
		return res.Stats, nil
	}

	for _, name := range verificationCases(cfg.Large) {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		if err := measureWithProof("fig4a/"+name, func(pw *proof.Writer) (smt.Stats, error) {
			return runScenario(verifyScenario(sys, 1+sys.Buses/2), pw, true)
		}); err != nil {
			return nil, err
		}
	}

	// Genuinely-unsat verification rows: any-state attackers under resource
	// budgets below the smallest feasible attack, so the whole run is one
	// certified Unsat answer. These are the rows where trimming does real
	// work — the fig4a runs end Sat, leaving a trimmed stream nearly empty —
	// and where proof logging certifies the verdict the paper's Algorithm 1
	// synthesis loop depends on.
	for _, w := range []struct {
		name        string
		meas, buses int
	}{
		{"ieee14", 2, 1}, {"ieee30", 3, 1}, {"ieee57", 3, 1}, {"ieee118", 4, 2},
	} {
		sys, err := grid.Case(w.name)
		if err != nil {
			return nil, err
		}
		meas, buses := w.meas, w.buses
		if err := measureWithProof("unsat/"+w.name, func(pw *proof.Writer) (smt.Stats, error) {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			sc.MaxAlteredMeasurements = meas
			sc.MaxCompromisedBuses = buses
			return runScenario(sc, pw, false)
		}); err != nil {
			return nil, err
		}
	}

	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		budget := benchSynthBudgets[name]
		runSynth := func(fresh bool, cubeWorkers int, proofDir string) (smt.Stats, error) {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			cfg.applyBudget(sc)
			req := &synth.Requirements{
				Attack: sc, MaxSecuredBuses: budget, Prune: true,
				CubeWorkers: cubeWorkers,
				ProofDir:    proofDir, ProofTag: "bench",
			}
			if fresh {
				opts := smt.DefaultOptions()
				opts.FreshPerCheck = true
				sc.Options = &opts
				req.Options = &opts
			}
			arch, err := synth.Synthesize(req)
			if err != nil {
				return smt.Stats{}, err
			}
			if proofDir != "" {
				// The winning worker's trimmed certificates must survive the
				// independent checker — the acceptance gate for parallel
				// synthesis timings.
				for _, pf := range arch.ProofFiles {
					rep, err := proof.CheckFile(pf)
					if err != nil {
						return smt.Stats{}, fmt.Errorf("cube certificate %s: %w", pf, err)
					}
					if rep.UnsatChecks == 0 {
						return smt.Stats{}, fmt.Errorf("cube certificate %s: no certified unsat checks", pf)
					}
				}
			}
			// Report the counters of the architecture's final verification
			// check plus its candidate selection — the dominant work of the
			// last refinement iteration.
			st := arch.VerifyStats
			st.Conflicts += arch.SelectStats.Conflicts
			st.Decisions += arch.SelectStats.Decisions
			st.Propagations += arch.SelectStats.Propagations
			st.Pivots += arch.SelectStats.Pivots
			st.FastOps += arch.SelectStats.FastOps
			st.BigOps += arch.SelectStats.BigOps
			return st, nil
		}
		// Measure the default (incremental) mode as the workload's headline
		// numbers, then the fresh-per-Check ablation and the cube-and-conquer
		// mode; both ablations land in the same entry's columns rather than
		// as separate rows.
		e, err := measureWorkload("fig5a/"+name, cfg.Out,
			func() (smt.Stats, error) { return runSynth(false, 0, "") })
		if err != nil {
			return nil, err
		}
		fe, err := measureWorkload("fig5a/"+name+"/fresh", cfg.Out,
			func() (smt.Stats, error) { return runSynth(true, 0, "") })
		if err != nil {
			return nil, err
		}
		e.FreshNsPerOp = fe.NsPerOp
		e.FreshAllocsPerOp = fe.AllocsPerOp
		ce, err := measureWorkload("fig5a/"+name+"/cube", cfg.Out,
			func() (smt.Stats, error) { return runSynth(false, benchWorkers, "") })
		if err != nil {
			return nil, err
		}
		e.CubeNsPerOp = ce.NsPerOp
		e.Workers = benchWorkers
		// One certified cube run outside the timed loop: proof streams change
		// the constant factor, and what the trajectory gates on is that the
		// winner's published certificates re-check independently.
		proofDir, err := os.MkdirTemp("", "benchcube")
		if err != nil {
			return nil, err
		}
		_, cerr := runSynth(false, benchWorkers, proofDir)
		os.RemoveAll(proofDir)
		if cerr != nil {
			return nil, cerr
		}
		entries = append(entries, e)
	}

	// Batched-sweep rows: the serving-layer analogue of the incremental-vs-
	// fresh ablation. A fig5a-style family (one base scenario, per-item
	// secured-measurement deltas) is answered two ways on a fresh
	// single-worker service per iteration: sequentially, with each delta
	// folded into its own self-contained spec — the batch-unaware client,
	// one cold encoder build per distinct item — and as one batched sweep,
	// which plans the family into one compatibility group and answers every
	// item on a single pooled encoder through scoped overlays. The headline
	// ns/op is the sequential baseline, sweep_ns_per_op the batched run, and
	// seq_builds/sweep_builds the encoder builds each mode paid (from the
	// pool's own Misses counter). Per-item verdicts must agree between modes.
	for _, w := range []struct {
		name string
		spec scenariofile.AttackSpec
		ids  []int
	}{
		{"ieee14", scenariofile.AttackSpec{
			Case: "ieee14", Untaken: []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
			Targets: []int{12}, OnlyTargets: true},
			[]int{1, 2, 3, 4, 6, 7, 8, 9, 11, 46}},
		{"ieee30", scenariofile.AttackSpec{Case: "ieee30", AnyState: true},
			[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
	} {
		items := []service.SweepItem{{}}
		for _, id := range w.ids {
			items = append(items, service.SweepItem{SecuredMeasurements: []int{id}})
		}
		svcCfg := service.Config{}
		var (
			seqVerdicts []string
			seqBuilds   uint64
			sweepBuilds uint64
		)
		runSeq := func() (smt.Stats, error) {
			svc, err := service.New(svcCfg)
			if err != nil {
				return smt.Stats{}, err
			}
			defer svc.Close()
			verdicts := make([]string, len(items))
			for i, it := range items {
				spec := w.spec
				spec.Secured = append(append([]int(nil), spec.Secured...), it.SecuredMeasurements...)
				resp, err := svc.Verify(context.Background(), &service.VerifyRequest{Attack: spec})
				if err != nil {
					return smt.Stats{}, err
				}
				if resp.Status != "feasible" && resp.Status != "infeasible" {
					return smt.Stats{}, fmt.Errorf("sweep/%s item %d: sequential inconclusive (%s)", w.name, i, resp.Why)
				}
				verdicts[i] = resp.Status
			}
			seqVerdicts = verdicts
			seqBuilds = svc.PoolStats().Misses
			return smt.Stats{}, nil
		}
		runSweep := func() (smt.Stats, error) {
			svc, err := service.New(svcCfg)
			if err != nil {
				return smt.Stats{}, err
			}
			defer svc.Close()
			resp, err := svc.Sweep(context.Background(), &service.SweepRequest{Attack: w.spec, Items: items})
			if err != nil {
				return smt.Stats{}, err
			}
			for i, item := range resp.Items {
				if item.Status != seqVerdicts[i] {
					return smt.Stats{}, fmt.Errorf("sweep/%s item %d: sweep says %s, sequential said %s",
						w.name, i, item.Status, seqVerdicts[i])
				}
			}
			sweepBuilds = svc.PoolStats().Misses
			return smt.Stats{}, nil
		}
		// The screening variant: same batch, service.Config.Screen on. Items
		// the LP relaxation decides are answered without touching the pool;
		// the rest fall through to the group's pooled encoder as usual. The
		// verdicts must match the sequential baseline item for item — the
		// screen may only change the cost of an answer, never the answer.
		var screenedItems int
		runScreenSweep := func() (smt.Stats, error) {
			svc, err := service.New(service.Config{Screen: true})
			if err != nil {
				return smt.Stats{}, err
			}
			defer svc.Close()
			resp, err := svc.Sweep(context.Background(), &service.SweepRequest{Attack: w.spec, Items: items})
			if err != nil {
				return smt.Stats{}, err
			}
			n := 0
			for i, item := range resp.Items {
				if item.Status != seqVerdicts[i] {
					return smt.Stats{}, fmt.Errorf("sweep/%s item %d: screened sweep says %s, sequential said %s",
						w.name, i, item.Status, seqVerdicts[i])
				}
				if item.Screened {
					n++
				}
			}
			screenedItems = n
			return smt.Stats{}, nil
		}
		e, err := measureWorkload("sweep/"+w.name, cfg.Out, runSeq)
		if err != nil {
			return nil, err
		}
		se, err := measureWorkload("sweep/"+w.name+"/batch", cfg.Out, runSweep)
		if err != nil {
			return nil, err
		}
		if sweepBuilds >= seqBuilds {
			return nil, fmt.Errorf("sweep/%s: batched mode built %d encoders, sequential built %d — no amortization",
				w.name, sweepBuilds, seqBuilds)
		}
		ke, err := measureWorkload("sweep/"+w.name+"/screen", cfg.Out, runScreenSweep)
		if err != nil {
			return nil, err
		}
		e.SweepNsPerOp = se.NsPerOp
		e.SeqBuilds = int64(seqBuilds)
		e.SweepBuilds = int64(sweepBuilds)
		e.ScreenNsPerOp = ke.NsPerOp
		e.ScreenRate = float64(screenedItems) / float64(len(items))
		entries = append(entries, e)
	}

	// Mixed-load scheduler row: the work-unit scheduler's serving-side
	// measurement. A six-group sweep (goal replacement re-specs each target
	// into its own group) runs on a two-worker scheduler while a stream of
	// small verifies arrives behind it; the headline ns/op is the whole
	// mixed scenario, mixed_p95_ms the p95 small-verify latency pooled
	// across iterations. Every answer — sweep items under load and the
	// small stream — is asserted equal to an idle-server baseline: fairness
	// may only change the cost of an answer, never the answer.
	{
		base := scenariofile.AttackSpec{
			Case: "ieee14", Untaken: []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
			Targets: []int{12}, OnlyTargets: true}
		var items []service.SweepItem
		for _, target := range []int{12, 9, 13, 4, 7, 10} {
			tgt := []int{target}
			items = append(items, service.SweepItem{Targets: tgt})
			for _, id := range []int{1, 2, 3, 4, 6, 7, 8, 9, 11, 46} {
				items = append(items, service.SweepItem{Targets: tgt, SecuredMeasurements: []int{id}})
			}
		}
		// Idle-server ground truth, computed once outside the timed loop.
		baseSvc, err := service.New(service.Config{})
		if err != nil {
			return nil, err
		}
		itemTruth := make([]string, len(items))
		for i, it := range items {
			spec := base
			spec.Targets = it.Targets
			resp, err := baseSvc.Verify(context.Background(), &service.VerifyRequest{
				Attack: spec, SecuredMeasurements: it.SecuredMeasurements})
			if err != nil {
				baseSvc.Close()
				return nil, err
			}
			itemTruth[i] = resp.Status
		}
		smallTruth, err := baseSvc.Verify(context.Background(), &service.VerifyRequest{Attack: base})
		baseSvc.Close()
		if err != nil {
			return nil, err
		}

		var smallNs []int64
		runMixed := func() (smt.Stats, error) {
			svc, err := service.New(service.Config{MaxConcurrent: 2})
			if err != nil {
				return smt.Stats{}, err
			}
			defer svc.Close()
			var (
				sweepResp *service.SweepResponse
				sweepErr  error
				done      = make(chan struct{})
			)
			go func() {
				defer close(done)
				sweepResp, sweepErr = svc.Sweep(context.Background(),
					&service.SweepRequest{Attack: base, Items: items})
			}()
			// The small stream starts once sweep units occupy the scheduler,
			// so its latencies measure fair interleaving, not an idle server.
		waitBusy:
			for {
				select {
				case <-done:
					break waitBusy
				default:
				}
				if st := svc.SchedStats(); st.Running > 0 || st.Queued > 0 {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			for i := 0; i < 12; i++ {
				t0 := time.Now()
				resp, err := svc.Verify(context.Background(), &service.VerifyRequest{Attack: base})
				if err != nil {
					return smt.Stats{}, err
				}
				smallNs = append(smallNs, time.Since(t0).Nanoseconds())
				if resp.Status != smallTruth.Status {
					return smt.Stats{}, fmt.Errorf("mixed/ieee14: small verify under load says %s, idle baseline says %s",
						resp.Status, smallTruth.Status)
				}
			}
			<-done
			if sweepErr != nil {
				return smt.Stats{}, sweepErr
			}
			for i, item := range sweepResp.Items {
				if item.Status != itemTruth[i] {
					return smt.Stats{}, fmt.Errorf("mixed/ieee14 item %d: sweep under load says %s, idle baseline says %s",
						i, item.Status, itemTruth[i])
				}
			}
			return smt.Stats{}, nil
		}
		e, err := measureWorkload("mixed/ieee14", cfg.Out, runMixed)
		if err != nil {
			return nil, err
		}
		sort.Slice(smallNs, func(i, j int) bool { return smallNs[i] < smallNs[j] })
		e.MixedP95Ms = float64(smallNs[len(smallNs)*95/100]) / 1e6

		entries = append(entries, e)
	}

	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		if err := add("tableiv/"+name, func() (smt.Stats, error) {
			sc := tableIVScenario(sys)
			cfg.applyBudget(sc)
			res, err := core.Verify(sc)
			if err != nil {
				return smt.Stats{}, err
			}
			if !res.Feasible {
				return smt.Stats{}, fmt.Errorf("expected a feasible attack")
			}
			return res.Stats, nil
		}); err != nil {
			return nil, err
		}
	}

	if err := add("acflow/ieee14", func() (smt.Stats, error) {
		return benchACFlow()
	}); err != nil {
		return nil, err
	}
	if err := add("smt/pigeonhole7", func() (smt.Stats, error) {
		return benchPigeonhole()
	}); err != nil {
		return nil, err
	}
	if err := add("smt/lra-chain200", func() (smt.Stats, error) {
		return benchLRAChain()
	}); err != nil {
		return nil, err
	}
	return entries, nil
}

// benchACFlow is the nonlinear-substrate workload: a full Newton–Raphson AC
// power flow on the IEEE 14-bus system lifted from its DC data (R/X = 0.2,
// 2% line charging), converged to 1e-10 mismatch and balance-checked. It
// times the dense-Jacobian path that the AC measurement model builds on,
// next to the SMT rows it will eventually feed.
func benchACFlow() (smt.Stats, error) {
	sys, err := grid.Case("ieee14")
	if err != nil {
		return smt.Stats{}, err
	}
	n, err := acflow.FromDC(sys, 0.2, 0.02)
	if err != nil {
		return smt.Stats{}, err
	}
	p := make([]float64, n.Buses+1)
	q := make([]float64, n.Buses+1)
	for j := 2; j <= n.Buses; j++ {
		p[j] = -(0.05 + 0.01*float64(j%5))
		q[j] = -0.02
	}
	st, err := n.Solve(acflow.FlowCase{Slack: 1, SlackV: 1.02, P: p, Q: q})
	if err != nil {
		return smt.Stats{}, err
	}
	pc, qc := n.Injections(st)
	for j := 2; j <= n.Buses; j++ {
		if math.Abs(pc[j]-p[j]) > 1e-7 || math.Abs(qc[j]-q[j]) > 1e-7 {
			return smt.Stats{}, fmt.Errorf("acflow: bus %d injection mismatch", j)
		}
	}
	return smt.Stats{}, nil
}

// benchPigeonhole is the propositional stress workload: 8 pigeons into 7
// holes, unsatisfiable, exercising the CDCL core with no theory content.
// It mirrors BenchmarkSMTSolver/pigeonhole7 in bench_test.go.
func benchPigeonhole() (smt.Stats, error) {
	s := smt.NewSolver(smt.DefaultOptions())
	const holes = 7
	vars := make([][]smt.BoolVar, holes+1)
	for p := range vars {
		vars[p] = make([]smt.BoolVar, holes)
		for h := range vars[p] {
			vars[p][h] = s.BoolVar("v")
		}
	}
	for p := 0; p <= holes; p++ {
		fs := make([]smt.Formula, holes)
		for h := 0; h < holes; h++ {
			fs[h] = smt.B(vars[p][h])
		}
		s.Assert(smt.Or(fs...))
	}
	for h := 0; h < holes; h++ {
		fs := make([]smt.Formula, holes+1)
		for p := 0; p <= holes; p++ {
			fs[p] = smt.B(vars[p][h])
		}
		s.AssertAtMostK(fs, 1)
	}
	res, err := s.Check()
	if err != nil {
		return smt.Stats{}, err
	}
	if res.Status != smt.Unsat {
		return smt.Stats{}, fmt.Errorf("pigeonhole: got %v, want unsat", res.Status)
	}
	return res.Stats, nil
}

// benchLRAChain is the arithmetic stress workload: a 200-link difference
// chain forcing x199 ≥ x0 + 199 against x199 ≤ 100, unsatisfiable through
// simplex reasoning. It mirrors BenchmarkSMTSolver/lra-chain200.
func benchLRAChain() (smt.Stats, error) {
	s := smt.NewSolver(smt.DefaultOptions())
	prev := s.RealVar("x0")
	s.Assert(smt.GE(smt.NewLinExpr().TermInt(1, prev), big.NewRat(0, 1)))
	for k := 1; k < 200; k++ {
		cur := s.RealVar("x")
		diff := smt.NewLinExpr().TermInt(1, cur).TermInt(-1, prev)
		s.Assert(smt.GE(diff, big.NewRat(1, 1)))
		prev = cur
	}
	s.Assert(smt.LE(smt.NewLinExpr().TermInt(1, prev), big.NewRat(100, 1)))
	res, err := s.Check()
	if err != nil {
		return smt.Stats{}, err
	}
	if res.Status != smt.Unsat {
		return smt.Stats{}, fmt.Errorf("lra-chain: got %v, want unsat", res.Status)
	}
	return res.Stats, nil
}
