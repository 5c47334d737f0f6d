package core

import (
	"fmt"
	"math/big"
)

// ExactMeasurementDeltas recomputes, from a feasible Result's exact state
// changes and topology flow deltas, the change the attacker must inject
// into every potential measurement (1-based, index 0 unused). The values
// mirror the model's own arithmetic, so the support restricted to taken
// measurements equals the result's AlteredMeasurements — the invariant the
// integration tests assert before replaying the attack against the real
// WLS estimator.
func ExactMeasurementDeltas(sc *Scenario, res *Result) ([]*big.Rat, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("core: cannot concretize an infeasible result")
	}
	sys := sc.System()
	l := sys.NumLines()
	deltas := make([]*big.Rat, sys.NumMeasurements()+1)
	for i := range deltas {
		deltas[i] = new(big.Rat)
	}
	excluded := make(map[int]bool, len(res.ExcludedLines))
	for _, i := range res.ExcludedLines {
		excluded[i] = true
	}
	included := make(map[int]bool, len(res.IncludedLines))
	for _, i := range res.IncludedLines {
		included[i] = true
	}
	theta := func(bus int) *big.Rat {
		if c, ok := res.StateChanges[bus]; ok {
			return c
		}
		return new(big.Rat)
	}
	for _, ln := range sys.Lines {
		i := ln.ID
		// mapped-after-attack per Eq. 8 with the result's el/il.
		mapped := (sc.inService(i) && !excluded[i]) || included[i]
		flow := new(big.Rat)
		if mapped {
			y := ratFromAdmittance(ln.Admittance)
			diff := new(big.Rat).Sub(theta(ln.From), theta(ln.To))
			flow.Mul(y, diff)
		}
		if dpt, ok := res.TopoFlowDeltas[i]; ok {
			flow.Add(flow, dpt)
		}
		deltas[i] = flow
		deltas[l+i] = new(big.Rat).Neg(flow)
		deltas[2*l+ln.To].Add(deltas[2*l+ln.To], flow)
		deltas[2*l+ln.From].Sub(deltas[2*l+ln.From], flow)
	}
	return deltas, nil
}

// FloatMeasurementDeltas converts ExactMeasurementDeltas to float64 for use
// with the floating-point estimator.
func FloatMeasurementDeltas(sc *Scenario, res *Result) ([]float64, error) {
	exact, err := ExactMeasurementDeltas(sc, res)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(exact))
	for i, r := range exact {
		out[i], _ = r.Float64()
	}
	return out, nil
}
