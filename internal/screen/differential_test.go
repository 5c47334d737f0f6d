package screen_test

// Differential soundness suite: the screen's contract is that a definitive
// verdict (Infeasible / FeasibleIntegral) always matches what the full SMT
// model decides. These tests throw randomized (grid, goal, resource-bound)
// triples at both tiers and fail on any disagreement, and run every
// feasible witness of either tier through core's exact evaluator. They
// live in an external test package because internal/core imports
// internal/screen.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/numeric"
	"segrid/internal/screen"
)

// randomScenario draws one verification instance over sys. The
// distribution is tuned so every scenario dimension the screen models —
// secured/untaken/inaccessible measurements, topology attacks, knowledge
// limits, budgets, all four goal families, MinChange — shows up often.
func randomScenario(rng *rand.Rand, sys *grid.System) *core.Scenario {
	sc := core.NewScenario(sys)
	nm, nl := sys.NumMeasurements(), sys.NumLines()

	for id := 1; id <= nm; id++ {
		switch rng.Intn(10) {
		case 0:
			sc.Meas.Taken[id] = false
		case 1, 2:
			sc.Meas.Secured[id] = true
		case 3:
			sc.Meas.Accessible[id] = false
		}
	}
	if rng.Intn(3) == 0 {
		sc.Knowledge = make([]bool, nl+1)
		for i := 1; i <= nl; i++ {
			sc.Knowledge[i] = rng.Intn(5) != 0
		}
		sc.StrictKnowledge = rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		sc.AllowExclusion = true
		sc.FixedLines = make([]bool, nl+1)
		for i := 1; i <= nl; i++ {
			sc.FixedLines[i] = rng.Intn(3) == 0
		}
	}
	if rng.Intn(4) == 0 {
		sc.InService = make([]bool, nl+1)
		for i := 1; i <= nl; i++ {
			sc.InService[i] = rng.Intn(8) != 0
		}
		sc.AllowInclusion = rng.Intn(2) == 0
	}
	if rng.Intn(2) == 0 {
		sc.MaxAlteredMeasurements = 1 + rng.Intn(8)
	}
	if rng.Intn(3) == 0 {
		sc.MaxCompromisedBuses = 1 + rng.Intn(5)
	}

	// Goal: at least one family, sometimes several.
	switch rng.Intn(5) {
	case 0:
		sc.AnyState = true
	case 1:
		sc.TargetStates = []int{2 + rng.Intn(sys.Buses-1)}
		sc.OnlyTargets = rng.Intn(2) == 0
	case 2:
		sc.TargetStates = []int{2 + rng.Intn(sys.Buses-1), 2 + rng.Intn(sys.Buses-1)}
	case 3:
		a, bb := 2+rng.Intn(sys.Buses-1), 2+rng.Intn(sys.Buses-1)
		sc.DistinctPairs = [][2]int{{a, bb}}
	default:
		sc.AnyState = true
		sc.UntouchedStates = []int{2 + rng.Intn(sys.Buses-1)}
	}
	if rng.Intn(4) == 0 {
		sc.MinChange = 0.05
	}
	return sc
}

// scenarioLabel renders enough of sc to reproduce a failure by hand.
func scenarioLabel(sc *core.Scenario) string {
	return fmt.Sprintf("targets=%v only=%v any=%v untouched=%v pairs=%v maxAlt=%d maxBus=%d excl=%v incl=%v strict=%v minchg=%v",
		sc.TargetStates, sc.OnlyTargets, sc.AnyState, sc.UntouchedStates, sc.DistinctPairs,
		sc.MaxAlteredMeasurements, sc.MaxCompromisedBuses, sc.AllowExclusion, sc.AllowInclusion,
		sc.StrictKnowledge, sc.MinChange)
}

// evaluation renders core's exact evaluator's answer on r: the deltas, or
// the error text.
func evaluation(sc *core.Scenario, r *core.Result) string {
	deltas, err := core.ExactMeasurementDeltas(sc, r)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(deltas)
}

// sameOnBigRat fails when the evaluator answers r differently with every
// rational operation forced onto big.Rat than on its machine-word fast
// path. SetForceBig is process-global, so no test here runs in parallel.
func sameOnBigRat(t *testing.T, sc *core.Scenario, r *core.Result, what string) {
	t.Helper()
	fast := evaluation(sc, r)
	prev := numeric.SetForceBig(true)
	slow := evaluation(sc, r)
	numeric.SetForceBig(prev)
	if fast != slow {
		t.Fatalf("%s: evaluator answers %s on machine words, %s on big.Rat", what, fast, slow)
	}
}

// checkWitness runs a feasible result through core's exact evaluator, and
// checks that the evaluator is not vacuous on it: the same result with one
// altered measurement dropped from its report, or with a target's Δθ
// zeroed, must be rejected. The evaluator must answer each of them the
// same on big.Rat arithmetic. It returns how many tamperings it tried.
func checkWitness(t *testing.T, sc *core.Scenario, res *core.Result, what string) int {
	t.Helper()
	if _, err := core.ExactMeasurementDeltas(sc, res); err != nil {
		t.Fatalf("%s fails the exact evaluator: %v", what, err)
	}
	sameOnBigRat(t, sc, res, what)
	tampered := 0
	if n := len(res.AlteredMeasurements); n > 0 {
		r := *res
		r.AlteredMeasurements = res.AlteredMeasurements[:n-1]
		if _, err := core.ExactMeasurementDeltas(sc, &r); err == nil {
			t.Fatalf("%s: evaluator accepts it with altered measurement %d unreported", what, res.AlteredMeasurements[n-1])
		}
		sameOnBigRat(t, sc, &r, what+" with a measurement unreported")
		tampered++
	}
	if len(sc.TargetStates) > 0 {
		r := *res
		r.StateChanges = make(map[int]*big.Rat, len(res.StateChanges))
		for j, d := range res.StateChanges {
			r.StateChanges[j] = d
		}
		delete(r.StateChanges, sc.TargetStates[0])
		if _, err := core.ExactMeasurementDeltas(sc, &r); err == nil {
			t.Fatalf("%s: evaluator accepts it with target %d's change zeroed", what, sc.TargetStates[0])
		}
		sameOnBigRat(t, sc, &r, what+" with a target zeroed")
		tampered++
	}
	return tampered
}

func runDifferential(t *testing.T, name string, rounds int, seed int64) {
	t.Helper()
	sys, err := grid.Case(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	definitive, witnesses, tampered := 0, 0, 0
	for n := 0; n < rounds; n++ {
		sc := randomScenario(rng, sys)
		res, err := core.ScreenScenario(ctx, sc, screen.Options{})
		if err != nil {
			t.Fatalf("%s round %d: screen: %v (%s)", name, n, err, scenarioLabel(sc))
		}
		full, err := core.Verify(sc)
		if err != nil {
			t.Fatalf("%s round %d: verify: %v (%s)", name, n, err, scenarioLabel(sc))
		}
		if full.Inconclusive {
			t.Fatalf("%s round %d: full model inconclusive: %v (%s)", name, n, full.Why, scenarioLabel(sc))
		}
		if full.Feasible {
			witnesses++
			tampered += checkWitness(t, sc, full, fmt.Sprintf("%s round %d: SMT witness (%s)", name, n, scenarioLabel(sc)))
		}
		if !res.Verdict.Definitive() {
			continue
		}
		definitive++
		if want := res.Verdict == screen.FeasibleIntegral; full.Feasible != want {
			t.Fatalf("%s round %d: screen says %v but full model says feasible=%v (%s)",
				name, n, res.Verdict, full.Feasible, scenarioLabel(sc))
		}
		if res.Verdict == screen.Infeasible {
			if len(res.Certificates) == 0 {
				t.Fatalf("%s round %d: reject without certificates (%s)", name, n, scenarioLabel(sc))
			}
			for _, c := range res.Certificates {
				if err := c.Verify(); err != nil {
					t.Fatalf("%s round %d: bad certificate: %v (%s)", name, n, err, scenarioLabel(sc))
				}
			}
		}
		if res.Verdict == screen.FeasibleIntegral {
			if res.Result == nil {
				t.Fatalf("%s round %d: accept without witness (%s)", name, n, scenarioLabel(sc))
			}
			witnesses++
			tampered += checkWitness(t, sc, res.Result, fmt.Sprintf("%s round %d: screen witness (%s)", name, n, scenarioLabel(sc)))
		}
	}
	if definitive == 0 {
		t.Fatalf("%s: no definitive verdict in %d rounds — the screen is useless here", name, rounds)
	}
	if tampered == 0 {
		t.Fatalf("%s: no witness could be tampered with — the evaluator check is vacuous", name)
	}
	t.Logf("%s: %d/%d rounds definitive, %d witnesses evaluated, %d tamperings rejected", name, definitive, rounds, witnesses, tampered)
}

func TestDifferentialIEEE14(t *testing.T) { runDifferential(t, "ieee14", 120, 1401) }
func TestDifferentialIEEE30(t *testing.T) { runDifferential(t, "ieee30", 60, 3001) }

func TestDifferentialIEEE57(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee57 differential rounds are slow")
	}
	runDifferential(t, "ieee57", 25, 5701)
}
