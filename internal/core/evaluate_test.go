package core

import (
	"context"
	"math/big"
	"testing"

	"segrid/internal/grid"
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

// TestExactMeasurementDeltasRejects checks that the evaluator audits a
// result rather than trusting it: each tampering of a genuine witness of
// the paper's Objective 2 topology attack must be rejected.
func TestExactMeasurementDeltasRejects(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.AllowExclusion = true
	sc.InService, sc.FixedLines, sc.SecuredStatus = CaseStudyTopology()
	sc.TargetStates = []int{12}
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatal("setup: attack infeasible")
	}
	if _, err := ExactMeasurementDeltas(sc, res); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
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
	for name, edit := range tamper {
		r := clone()
		edit(r)
		if _, err := ExactMeasurementDeltas(sc, r); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}
