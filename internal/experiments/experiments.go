// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the case studies (Sections III-I and IV-E).
// Each experiment prints the same rows/series the paper reports and returns
// the measured data so the benchmark harness can assert on shapes.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"segrid/internal/baseline"
	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/smt"
	"segrid/internal/synth"
)

// Config selects experiment scope.
type Config struct {
	// Out receives the printed tables.
	Out io.Writer
	// Large includes the IEEE 300-bus runs (minutes of extra runtime).
	Large bool
	// Parallel runs sweep instances (Fig 4(b)–(d), Fig 5(b)–(d)) on up to
	// Parallel workers; values below 2 keep the historical sequential
	// execution. Output ordering is deterministic either way. Wall-clock
	// timings measured under parallelism include scheduler and memory-bus
	// contention, so use it for trajectory tracking and smoke runs, not for
	// paper-grade timing. The headline scaling figures (Fig 4(a), Fig 5(a))
	// always run sequentially.
	Parallel int
}

// runJobs maps fn over n indexed jobs with up to parallel workers and
// returns the results in job order. Each job builds its own grid.System and
// scenario, so jobs share no mutable state. Errors surface in job order: the
// lowest failing index wins, matching the sequential sweeps' behavior.
func runJobs[T any](parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verificationCases lists the systems used by the verification-side
// experiments, optionally including the 300-bus case.
func verificationCases(large bool) []string {
	names := []string{"ieee14", "ieee30", "ieee57", "ieee118"}
	if large {
		names = append(names, "ieee300")
	}
	return names
}

// targetsFor picks the paper's "three different states to be attacked" per
// system: an early, a middle and a late bus (never the reference).
func targetsFor(sys *grid.System) []int {
	return []int{2 + sys.Buses/10, 1 + sys.Buses/2, sys.Buses - 1}
}

// verifyScenario builds the standard timing scenario: a single-state target
// under proportional attacker resource limits. The limits are deliberately
// generous (a quarter of the grid): budgets close to the target's minimal
// cut size turn the instance into a near-boundary search whose time is
// dominated by the combinatorics of one instance rather than by problem
// size, which is what this figure measures.
func verifyScenario(sys *grid.System, target int) *core.Scenario {
	sc := core.NewScenario(sys)
	sc.TargetStates = []int{target}
	sc.MaxAlteredMeasurements = sys.NumMeasurements() / 4
	sc.MaxCompromisedBuses = sys.Buses / 4
	return sc
}

// tableIVScenario is the model-size measurement scenario: the unrestricted
// attacker, whose model carries no cardinality counters, so the encoded
// size reflects the core constraint system — linear in the measurement
// count, the shape the paper's Table IV reports. (Resource-limited
// scenarios add counter circuits of size O(m·T_CZ) on top.)
func tableIVScenario(sys *grid.System) *core.Scenario {
	sc := core.NewScenario(sys)
	sc.AnyState = true
	return sc
}

// timedVerify runs one verification and returns elapsed time plus result.
// A budget-starved (inconclusive) run is an error here: a sweep row must
// never report "unsat" for an instance the solver merely gave up on.
func timedVerify(sc *core.Scenario) (time.Duration, *core.Result, error) {
	start := time.Now()
	res, err := core.Verify(sc)
	if err == nil && res.Inconclusive {
		err = fmt.Errorf("inconclusive: %v", res.Why)
	}
	return time.Since(start), res, err
}

// Fig4aRow is one system's verification-time measurement.
type Fig4aRow struct {
	Case    string
	Buses   int
	Times   []time.Duration // one per target choice
	Average time.Duration
}

// Fig4a measures UFDI-attack verification time against problem size
// (paper Fig. 4(a)): three target choices per IEEE system plus the average.
func Fig4a(cfg Config) ([]Fig4aRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 4(a): verification time vs problem size")
	fmt.Fprintf(cfg.Out, "%-9s %6s %12s %12s %12s %12s\n",
		"case", "buses", "run1", "run2", "run3", "average")
	rows := make([]Fig4aRow, 0, 5)
	for _, name := range verificationCases(cfg.Large) {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		row := Fig4aRow{Case: name, Buses: sys.Buses}
		var total time.Duration
		for _, target := range targetsFor(sys) {
			dt, _, err := timedVerify(verifyScenario(sys, target))
			if err != nil {
				return nil, fmt.Errorf("fig4a %s target %d: %w", name, target, err)
			}
			row.Times = append(row.Times, dt)
			total += dt
		}
		row.Average = total / time.Duration(len(row.Times))
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-9s %6d %12s %12s %12s %12s\n",
			name, sys.Buses, row.Times[0].Round(time.Microsecond),
			row.Times[1].Round(time.Microsecond), row.Times[2].Round(time.Microsecond),
			row.Average.Round(time.Microsecond))
	}
	return rows, nil
}

// Fig4bRow is one (case, fraction) verification-time measurement.
type Fig4bRow struct {
	Case     string
	Fraction float64
	Time     time.Duration
}

// Fig4b measures verification time against the share of taken measurements
// (paper Fig. 4(b); 30- and 57-bus systems).
func Fig4b(cfg Config) ([]Fig4bRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 4(b): verification time vs taken measurements")
	fmt.Fprintf(cfg.Out, "%-9s %10s %12s\n", "case", "taken", "time")
	type job struct {
		name string
		frac float64
	}
	var jobs []job
	for _, name := range []string{"ieee30", "ieee57"} {
		for _, frac := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
			jobs = append(jobs, job{name, frac})
		}
	}
	rows, err := runJobs(cfg.Parallel, len(jobs), func(i int) (Fig4bRow, error) {
		j := jobs[i]
		sys, err := grid.Case(j.name)
		if err != nil {
			return Fig4bRow{}, err
		}
		sc := verifyScenario(sys, 1+sys.Buses/2)
		if err := sc.Meas.KeepFraction(j.frac); err != nil {
			return Fig4bRow{}, err
		}
		dt, _, err := timedVerify(sc)
		if err != nil {
			return Fig4bRow{}, fmt.Errorf("fig4b %s frac %v: %w", j.name, j.frac, err)
		}
		return Fig4bRow{Case: j.name, Fraction: j.frac, Time: dt}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-9s %9.0f%% %12s\n", row.Case, row.Fraction*100, row.Time.Round(time.Microsecond))
	}
	return rows, nil
}

// Fig4cRow is one (case, limit) verification-time measurement.
type Fig4cRow struct {
	Case     string
	Limit    int
	Feasible bool
	Time     time.Duration
}

// Fig4c measures verification time against the attacker's resource limit
// T_CZ (paper Fig. 4(c); 14- and 30-bus systems).
func Fig4c(cfg Config) ([]Fig4cRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 4(c): verification time vs attacker resource limit")
	fmt.Fprintf(cfg.Out, "%-9s %6s %10s %12s\n", "case", "T_CZ", "result", "time")
	type job struct {
		name  string
		limit int
	}
	var jobs []job
	for _, name := range []string{"ieee14", "ieee30"} {
		for _, limit := range []int{4, 8, 12, 16, 20, 24, 28} {
			jobs = append(jobs, job{name, limit})
		}
	}
	rows, err := runJobs(cfg.Parallel, len(jobs), func(i int) (Fig4cRow, error) {
		j := jobs[i]
		sys, err := grid.Case(j.name)
		if err != nil {
			return Fig4cRow{}, err
		}
		sc := core.NewScenario(sys)
		sc.TargetStates = []int{1 + sys.Buses/2}
		sc.MaxAlteredMeasurements = j.limit
		dt, res, err := timedVerify(sc)
		if err != nil {
			return Fig4cRow{}, fmt.Errorf("fig4c %s limit %d: %w", j.name, j.limit, err)
		}
		return Fig4cRow{Case: j.name, Limit: j.limit, Feasible: res.Feasible, Time: dt}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-9s %6d %10v %12s\n", row.Case, row.Limit, verdict(row.Feasible), row.Time.Round(time.Microsecond))
	}
	return rows, nil
}

func verdict(feasible bool) string {
	if feasible {
		return "sat"
	}
	return "unsat"
}

// Fig4dRow pairs satisfiable and unsatisfiable verification times.
type Fig4dRow struct {
	Case      string
	SatTime   time.Duration
	UnsatTime time.Duration
}

// Fig4d compares verification times of satisfiable and unsatisfiable
// instances (paper Fig. 4(d)).
func Fig4d(cfg Config) ([]Fig4dRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 4(d): verification time, satisfiable vs unsatisfiable")
	fmt.Fprintf(cfg.Out, "%-9s %12s %12s\n", "case", "sat", "unsat")
	names := verificationCases(cfg.Large)
	rows, err := runJobs(cfg.Parallel, len(names), func(i int) (Fig4dRow, error) {
		name := names[i]
		sys, err := grid.Case(name)
		if err != nil {
			return Fig4dRow{}, err
		}
		sat := verifyScenario(sys, 1+sys.Buses/2)
		dtSat, resSat, err := timedVerify(sat)
		if err != nil {
			return Fig4dRow{}, err
		}
		if !resSat.Feasible {
			return Fig4dRow{}, fmt.Errorf("fig4d %s: satisfiable scenario was unsat", name)
		}
		// Tight resources make the attack impossible: under full metering
		// any state change cuts at least one line, which costs two flow
		// measurements plus two endpoint injections — four alterations.
		unsat := core.NewScenario(sys)
		unsat.AnyState = true
		unsat.MaxAlteredMeasurements = 3
		dtUnsat, resUnsat, err := timedVerify(unsat)
		if err != nil {
			return Fig4dRow{}, err
		}
		if resUnsat.Feasible {
			return Fig4dRow{}, fmt.Errorf("fig4d %s: unsatisfiable scenario was sat", name)
		}
		return Fig4dRow{Case: name, SatTime: dtSat, UnsatTime: dtUnsat}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-9s %12s %12s\n", row.Case,
			row.SatTime.Round(time.Microsecond), row.UnsatTime.Round(time.Microsecond))
	}
	return rows, nil
}

// synthRequirements builds the standard synthesis-timing requirements: the
// full-knowledge unlimited attacker, budget two above the greedy baseline's
// bus count (so a solution exists), with the given share of measurements
// taken.
func synthRequirements(sys *grid.System, frac float64) (*synth.Requirements, error) {
	meas := grid.NewMeasurementConfig(sys)
	if frac < 1 {
		if err := meas.KeepFraction(frac); err != nil {
			return nil, err
		}
	}
	greedy, err := baseline.GreedyBusProtection(meas, 1, 0)
	if err != nil {
		return nil, err
	}
	sc := core.NewScenario(sys)
	sc.Meas = meas
	sc.AnyState = true
	return &synth.Requirements{
		Attack:          sc,
		MaxSecuredBuses: len(greedy) + 2,
		Prune:           true,
	}, nil
}

// Fig5aRow is one synthesis-time measurement.
type Fig5aRow struct {
	Case       string
	Fraction   float64
	Buses      int
	Secured    int
	Iterations int
	Time       time.Duration
}

// Fig5a measures synthesis time against problem size for 90% and 100%
// of measurements taken (paper Fig. 5(a)).
func Fig5a(cfg Config) ([]Fig5aRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 5(a): synthesis time vs problem size")
	fmt.Fprintf(cfg.Out, "%-9s %8s %8s %8s %6s %12s\n", "case", "taken", "secured", "iters", "buses", "time")
	var rows []Fig5aRow
	for _, name := range verificationCases(cfg.Large) {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.9, 1.0} {
			req, err := synthRequirements(sys, frac)
			if err != nil {
				return nil, fmt.Errorf("fig5a %s: %w", name, err)
			}
			start := time.Now()
			arch, err := synth.Synthesize(req)
			if err != nil {
				return nil, fmt.Errorf("fig5a %s frac %v: %w", name, frac, err)
			}
			dt := time.Since(start)
			rows = append(rows, Fig5aRow{
				Case: name, Fraction: frac, Buses: sys.Buses,
				Secured: len(arch.SecuredBuses), Iterations: arch.Iterations, Time: dt,
			})
			fmt.Fprintf(cfg.Out, "%-9s %7.0f%% %8d %8d %6d %12s\n",
				name, frac*100, len(arch.SecuredBuses), arch.Iterations, sys.Buses,
				dt.Round(time.Millisecond))
		}
	}
	return rows, nil
}

// Fig5bRow is one (case, fraction) synthesis-time measurement.
type Fig5bRow struct {
	Case     string
	Fraction float64
	Time     time.Duration
}

// Fig5b measures synthesis time against the share of taken measurements
// (paper Fig. 5(b); 30- and 57-bus systems).
func Fig5b(cfg Config) ([]Fig5bRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 5(b): synthesis time vs taken measurements")
	fmt.Fprintf(cfg.Out, "%-9s %10s %12s\n", "case", "taken", "time")
	type job struct {
		name string
		frac float64
	}
	var jobs []job
	for _, name := range []string{"ieee30", "ieee57"} {
		for _, frac := range []float64{0.7, 0.8, 0.9, 1.0} {
			jobs = append(jobs, job{name, frac})
		}
	}
	rows, err := runJobs(cfg.Parallel, len(jobs), func(i int) (Fig5bRow, error) {
		j := jobs[i]
		sys, err := grid.Case(j.name)
		if err != nil {
			return Fig5bRow{}, err
		}
		req, err := synthRequirements(sys, j.frac)
		if err != nil {
			return Fig5bRow{}, fmt.Errorf("fig5b %s: %w", j.name, err)
		}
		start := time.Now()
		if _, err := synth.Synthesize(req); err != nil {
			return Fig5bRow{}, fmt.Errorf("fig5b %s frac %v: %w", j.name, j.frac, err)
		}
		return Fig5bRow{Case: j.name, Fraction: j.frac, Time: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-9s %9.0f%% %12s\n", row.Case, row.Fraction*100, row.Time.Round(time.Millisecond))
	}
	return rows, nil
}

// Fig5cRow is one (limit, time) synthesis measurement.
type Fig5cRow struct {
	Case         string
	LimitPercent int
	Time         time.Duration
}

// Fig5c measures synthesis time against the attacker's resource limit,
// expressed as a percentage of the total measurements (paper Fig. 5(c)).
func Fig5c(cfg Config) ([]Fig5cRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 5(c): synthesis time vs attacker resource limit")
	fmt.Fprintf(cfg.Out, "%-9s %8s %12s\n", "case", "T_CZ", "time")
	type job struct {
		name string
		pct  int
	}
	var jobs []job
	for _, name := range []string{"ieee14", "ieee30"} {
		for _, pct := range []int{20, 40, 60, 80, 100} {
			jobs = append(jobs, job{name, pct})
		}
	}
	rows, err := runJobs(cfg.Parallel, len(jobs), func(i int) (Fig5cRow, error) {
		j := jobs[i]
		sys, err := grid.Case(j.name)
		if err != nil {
			return Fig5cRow{}, err
		}
		req, err := synthRequirements(sys, 1.0)
		if err != nil {
			return Fig5cRow{}, err
		}
		req.Attack.MaxAlteredMeasurements = j.pct * sys.NumMeasurements() / 100
		start := time.Now()
		if _, err := synth.Synthesize(req); err != nil {
			return Fig5cRow{}, fmt.Errorf("fig5c %s pct %d: %w", j.name, j.pct, err)
		}
		return Fig5cRow{Case: j.name, LimitPercent: j.pct, Time: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-9s %7d%% %12s\n", row.Case, row.LimitPercent, row.Time.Round(time.Millisecond))
	}
	return rows, nil
}

// Fig5dRow is one unsatisfiable-synthesis measurement.
type Fig5dRow struct {
	Scenario string
	Minimum  int
	Budget   int
	Time     time.Duration
}

// Fig5d measures synthesis time in unsatisfiable cases: the operator budget
// sweeps up toward (but stays below) the minimum protective size on the
// 30-bus system, in two measurement scenarios with different minima (paper
// Fig. 5(d)).
func Fig5d(cfg Config) ([]Fig5dRow, error) {
	fmt.Fprintln(cfg.Out, "Fig 5(d): synthesis time in unsatisfiable cases")
	fmt.Fprintf(cfg.Out, "%-11s %8s %8s %12s\n", "scenario", "minimum", "budget", "time")
	scenarios := []struct {
		name string
		frac float64
	}{
		{"full", 1.0},
		{"reduced", 0.75},
	}
	// The budget sweep inside one scenario depends on its minimum search, so
	// parallelism is at scenario granularity.
	groups, err := runJobs(cfg.Parallel, len(scenarios), func(i int) ([]Fig5dRow, error) {
		scn := scenarios[i]
		sys, err := grid.Case("ieee30")
		if err != nil {
			return nil, err
		}
		req, err := synthRequirements(sys, scn.frac)
		if err != nil {
			return nil, err
		}
		// Find the true minimum protective size: synthesize, then shrink
		// the budget below each solution until synthesis fails.
		arch, err := synth.Synthesize(req)
		if err != nil {
			return nil, fmt.Errorf("fig5d %s: %w", scn.name, err)
		}
		minimum := len(arch.SecuredBuses)
		for minimum > 1 {
			req2, err := synthRequirements(sys, scn.frac)
			if err != nil {
				return nil, err
			}
			req2.MaxSecuredBuses = minimum - 1
			smaller, err := synth.Synthesize(req2)
			if errors.Is(err, synth.ErrNoArchitecture) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("fig5d %s minimum search: %w", scn.name, err)
			}
			minimum = len(smaller.SecuredBuses)
		}
		var rows []Fig5dRow
		for _, below := range []int{3, 2, 1} {
			budget := minimum - below
			if budget < 1 {
				continue
			}
			req2, err := synthRequirements(sys, scn.frac)
			if err != nil {
				return nil, err
			}
			req2.MaxSecuredBuses = budget
			start := time.Now()
			_, err = synth.Synthesize(req2)
			dt := time.Since(start)
			if err == nil {
				return nil, fmt.Errorf("fig5d %s budget %d: unexpectedly satisfiable below the minimum %d",
					scn.name, budget, minimum)
			}
			rows = append(rows, Fig5dRow{Scenario: scn.name, Minimum: minimum, Budget: budget, Time: dt})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5dRow
	for _, g := range groups {
		rows = append(rows, g...)
	}
	for _, row := range rows {
		fmt.Fprintf(cfg.Out, "%-11s %8d %8d %12s\n", row.Scenario, row.Minimum, row.Budget, row.Time.Round(time.Millisecond))
	}
	return rows, nil
}

// TableIVRow reports model-size statistics for one system.
type TableIVRow struct {
	Case             string
	Buses            int
	VerifyAllocMB    float64
	SelectAllocMB    float64
	VerifyBoolVars   int
	VerifyClauses    int
	VerifyAtoms      int
	SelectionClauses int
}

// TableIV reports the memory/model-size analogue of the paper's Table IV:
// heap allocated while encoding and solving the verification and candidate
// selection models.
func TableIV(cfg Config) ([]TableIVRow, error) {
	fmt.Fprintln(cfg.Out, "Table IV: model memory (heap allocated during encode+solve, MB)")
	fmt.Fprintf(cfg.Out, "%-9s %6s %12s %12s %10s %10s %8s\n",
		"case", "buses", "verify(MB)", "select(MB)", "boolvars", "clauses", "atoms")
	var rows []TableIVRow
	for _, name := range verificationCases(cfg.Large) {
		sys, err := grid.Case(name)
		if err != nil {
			return nil, err
		}
		_, res, err := timedVerify(tableIVScenario(sys))
		if err != nil {
			return nil, err
		}

		// Candidate selection model alone: encode and solve one selection.
		sel := smt.NewSolver(smt.DefaultOptions())
		fs := make([]smt.Formula, 0, sys.Buses)
		for j := 1; j <= sys.Buses; j++ {
			fs = append(fs, smt.B(sel.BoolVar(fmt.Sprintf("sb_%d", j))))
		}
		sel.AssertAtMostK(fs, sys.Buses/3)
		selRes, err := sel.Check()
		if err != nil {
			return nil, err
		}

		row := TableIVRow{
			Case:             name,
			Buses:            sys.Buses,
			VerifyAllocMB:    float64(res.Stats.AllocBytes) / 1e6,
			SelectAllocMB:    float64(selRes.Stats.AllocBytes) / 1e6,
			VerifyBoolVars:   res.Stats.BoolVars,
			VerifyClauses:    res.Stats.Clauses,
			VerifyAtoms:      res.Stats.Atoms,
			SelectionClauses: selRes.Stats.Clauses,
		}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-9s %6d %12.2f %12.2f %10d %10d %8d\n",
			name, sys.Buses, row.VerifyAllocMB, row.SelectAllocMB,
			row.VerifyBoolVars, row.VerifyClauses, row.VerifyAtoms)
	}
	return rows, nil
}
