package core

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"segrid/internal/grid"
	"segrid/internal/numeric"
	"segrid/internal/screen"
)

// TestMinChangeQuantization pins the MinChange range: a positive threshold
// that the 1e-9 quantization would round to zero, or whose numerator would
// overflow int64, is a validation error on both tiers instead of a silently
// dropped goal. With every measurement secured no attack on state 2
// exists, so an in-range threshold must answer infeasible on both tiers.
func TestMinChangeQuantization(t *testing.T) {
	scenario := func(minChange float64) *Scenario {
		sc := NewScenario(grid.IEEE14())
		for id := 1; id <= sc.System().NumMeasurements(); id++ {
			sc.Meas.Secured[id] = true
		}
		sc.TargetStates = []int{2}
		sc.MinChange = minChange
		return sc
	}
	ctx := context.Background()
	for _, mc := range []float64{1e-10, 4e-10, 1e10, 1e300} {
		if _, err := Verify(scenario(mc)); err == nil {
			t.Errorf("MinChange %g: Verify accepted the scenario", mc)
		}
		if _, err := ScreenScenario(ctx, scenario(mc), screen.Options{}); err == nil {
			t.Errorf("MinChange %g: ScreenScenario accepted the scenario", mc)
		}
	}
	for _, mc := range []float64{1e-9, 0.05} {
		res := verify(t, scenario(mc))
		if res.Feasible || res.Inconclusive {
			t.Errorf("MinChange %g: SMT tier says feasible=%v inconclusive=%v, want infeasible", mc, res.Feasible, res.Inconclusive)
		}
		sres, err := ScreenScenario(ctx, scenario(mc), screen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sres.Verdict != screen.Infeasible {
			t.Errorf("MinChange %g: screen says %v, want infeasible", mc, sres.Verdict)
		}
	}
}

// objective2Tamperings returns the paper's Objective 2 topology attack
// scenario, a genuine witness of it and tampered copies of that witness,
// each of which the evaluator must reject.
func objective2Tamperings(t *testing.T) (*Scenario, *Result, map[string]*Result) {
	t.Helper()
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.AllowExclusion = true
	sc.InService, sc.FixedLines, sc.SecuredStatus = CaseStudyTopology()
	sc.TargetStates = []int{12}
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatal("setup: attack infeasible")
	}
	clone := func() *Result {
		c := *res
		c.AlteredMeasurements = append([]int(nil), res.AlteredMeasurements...)
		c.CompromisedBuses = append([]int(nil), res.CompromisedBuses...)
		c.ExcludedLines = append([]int(nil), res.ExcludedLines...)
		c.StateChanges = make(map[int]*big.Rat)
		for j, d := range res.StateChanges {
			c.StateChanges[j] = d
		}
		c.TopoFlowDeltas = make(map[int]*big.Rat)
		for i, d := range res.TopoFlowDeltas {
			c.TopoFlowDeltas[i] = d
		}
		return &c
	}
	tamper := map[string]func(*Result){
		"altered measurement dropped": func(r *Result) { r.AlteredMeasurements = r.AlteredMeasurements[1:] },
		"compromised bus added":       func(r *Result) { r.CompromisedBuses = append(r.CompromisedBuses, 1) },
		"target unchanged":            func(r *Result) { delete(r.StateChanges, 12) },
		"reference angle moved":       func(r *Result) { r.StateChanges[1] = big.NewRat(1, 10) },
		"fixed line excluded":         func(r *Result) { r.ExcludedLines = append(r.ExcludedLines, 1); r.TopoFlowDeltas[1] = big.NewRat(1, 1) },
		"stray topology delta":        func(r *Result) { r.TopoFlowDeltas[2] = big.NewRat(1, 1) },
	}
	tampered := make(map[string]*Result, len(tamper))
	for name, edit := range tamper {
		r := clone()
		edit(r)
		tampered[name] = r
	}
	return sc, res, tampered
}

// TestExactMeasurementDeltasRejects checks that the evaluator audits a
// result rather than trusting it: each tampering of a genuine witness of
// the paper's Objective 2 topology attack must be rejected.
func TestExactMeasurementDeltasRejects(t *testing.T) {
	sc, res, tampered := objective2Tamperings(t)
	if _, err := ExactMeasurementDeltas(sc, res); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	for name, r := range tampered {
		if _, err := ExactMeasurementDeltas(sc, r); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}

// evaluation is everything the evaluator answers for one result, deltas
// rendered exactly.
type evaluation struct {
	deltas               []string
	altered, compromised []int
	err, publicErr       string
	promoted             bool // some delta is carried by big.Rat
}

func evaluateAll(sc *Scenario, r *Result) evaluation {
	deltas, altered, compromised, err := sc.evaluate(r)
	ev := evaluation{altered: altered, compromised: compromised}
	for _, d := range deltas {
		ev.deltas = append(ev.deltas, d.RatString())
		ev.promoted = ev.promoted || d.IsBig()
	}
	if err != nil {
		ev.err = err.Error()
	}
	if _, err := ExactMeasurementDeltas(sc, r); err != nil {
		ev.publicErr = err.Error()
	}
	return ev
}

// hugeDenominatorResult is an any-state attack on ieee14 whose state
// changes have denominators above int64 (buses 2 and 7) or whose
// difference across line 4–5 does, so the evaluator's machine-word
// arithmetic must promote; its reported altered measurements and
// compromised buses are the ones the evaluator derives.
func hugeDenominatorResult(t *testing.T) (*Scenario, *Result) {
	t.Helper()
	sc := NewScenario(grid.IEEE14())
	sc.AnyState = true
	den, _ := new(big.Int).SetString("18446744073709551629", 10) // 2^64 + 13, above int64
	r := &Result{
		Feasible: true,
		StateChanges: map[int]*big.Rat{
			2: new(big.Rat).SetFrac(big.NewInt(1), den),
			7: new(big.Rat).SetFrac(big.NewInt(-3), den),
			9: big.NewRat(1, 3),
			4: big.NewRat(1, 1<<40+15),
			5: big.NewRat(1, 1<<40+7),
		},
		TopoFlowDeltas: map[int]*big.Rat{},
	}
	_, altered, compromised, err := sc.evaluate(r)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	r.AlteredMeasurements, r.CompromisedBuses = altered, compromised
	return sc, r
}

// TestEvaluateExactUnderForceBig checks that the evaluator's machine-word
// fast path is exact: with numeric.SetForceBig every operation runs on
// big.Rat, and the deltas, altered measurements, compromised buses and
// error text must not change. It covers Fig. 4(a) and any-state
// witnesses, the tampered Objective 2 results, and a result whose
// denominators exceed int64 (so the fast path itself promotes). Not
// parallel: SetForceBig is process-global.
func TestEvaluateExactUnderForceBig(t *testing.T) {
	type item struct {
		name string
		sc   *Scenario
		r    *Result
	}
	var items []item
	for _, sys := range []*grid.System{grid.IEEE14(), grid.IEEE30()} {
		fig4a := fig4aScenario(sys)
		items = append(items, item{"fig4a/" + sys.Name, fig4a, verify(t, fig4a)})
		anyState := NewScenario(sys)
		anyState.AnyState = true
		anyState.MaxAlteredMeasurements = 6
		items = append(items, item{"any-state/" + sys.Name, anyState, verify(t, anyState)})
	}
	sc, res, tampered := objective2Tamperings(t)
	items = append(items, item{"objective2", sc, res})
	for name, r := range tampered {
		items = append(items, item{"objective2/" + name, sc, r})
	}
	hsc, hres := hugeDenominatorResult(t)
	items = append(items, item{"huge denominators", hsc, hres})
	minChange := *hsc
	minChange.MinChange = 1e-9
	items = append(items, item{"huge denominators under MinChange", &minChange, hres})

	for _, it := range items {
		fast := evaluateAll(it.sc, it.r)
		prev := numeric.SetForceBig(true)
		slow := evaluateAll(it.sc, it.r)
		numeric.SetForceBig(prev)
		if !slow.promoted && slow.err == "" {
			t.Fatalf("%s: forced run did not promote", it.name)
		}
		slow.promoted = fast.promoted
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s: fast path %+v, big.Rat path %+v", it.name, fast, slow)
		}
	}
	if ev := evaluateAll(hsc, hres); !ev.promoted || ev.err != "" {
		t.Errorf("huge denominators: promoted=%v err=%q, want promoted deltas and no error", ev.promoted, ev.err)
	}
	if ev := evaluateAll(items[0].sc, items[0].r); ev.promoted || ev.err != "" {
		t.Errorf("%s: promoted=%v err=%q, want machine-word deltas and no error", items[0].name, ev.promoted, ev.err)
	}
}

// TestExactMeasurementDeltasAllocs bounds the evaluator's allocations on an
// ieee30 Fig. 4(a) witness (549 on big.Rat arithmetic, 14 on numeric.Q):
// every published feasible verdict pays them.
func TestExactMeasurementDeltasAllocs(t *testing.T) {
	sc := fig4aScenario(grid.IEEE30())
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatal("setup: Fig. 4(a) attack infeasible")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ExactMeasurementDeltas(sc, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("ExactMeasurementDeltas: %.0f allocations per call, want ≤ 32", allocs)
	}
}
