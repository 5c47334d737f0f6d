package core

import (
	"fmt"
	"slices"

	"segrid/internal/numeric"
)

// evaluate is the model's one exact semantics (Eqs. 5–26). From an
// attack's state changes Δθ, excluded and included lines and topology flow
// deltas ΔPT — the fields of a feasible Result — it computes the change the
// attacker must inject into every potential measurement (1-based, index 0
// unused) and checks every constraint in exact arithmetic: topology
// admissibility, pinned deltas, strict knowledge, the integral budgets and
// the goal. It returns the deltas with the altered measurements and
// compromised buses they imply (ascending), or the first violated
// constraint. The screen's replay calls it before every accept;
// ExactMeasurementDeltas is its public face for SMT results.
//
// The arithmetic runs on numeric.Q, which stays on machine words and
// promotes to big.Rat only when a value would overflow, so it is exact
// either way; the admittances are the system's own (System.ExactAdmittance).
func (sc *Scenario) evaluate(r *Result) (deltas []numeric.Q, altered, compromised []int, err error) {
	sys := sc.System()
	nl := sys.NumLines()
	theta := make([]numeric.Q, sys.Buses+1)
	for j, d := range r.StateChanges {
		if j < 1 || j > sys.Buses || d == nil {
			return nil, nil, nil, fmt.Errorf("core: malformed state change on bus %d (buses 1..%d)", j, sys.Buses)
		}
		theta[j] = numeric.QFromRat(d)
	}
	if theta[sc.RefBus].Sign() != 0 {
		return nil, nil, nil, fmt.Errorf("core: reference bus %d angle changed", sc.RefBus)
	}

	// Topology (Eqs. 8–12): a poisoned line must be admissible and carry a
	// nonzero ΔPT, and only poisoned lines carry one. Excluding an
	// in-service line unmaps it; including an out-of-service one maps it.
	mapped := make([]bool, nl+1)
	for i := 1; i <= nl; i++ {
		mapped[i] = sc.inService(i)
	}
	poisoned := make([]bool, nl+1)
	for _, set := range []struct {
		kind       string
		lines      []int
		admissible func(int) bool
	}{
		{"exclusion", r.ExcludedLines, sc.canExclude},
		{"inclusion", r.IncludedLines, sc.canInclude},
	} {
		for _, i := range set.lines {
			if i < 1 || i > nl || !set.admissible(i) || !sc.statusAttackable(i) {
				return nil, nil, nil, fmt.Errorf("core: %s of line %d is not admissible", set.kind, i)
			}
			if d := r.TopoFlowDeltas[i]; d == nil || d.Sign() == 0 {
				return nil, nil, nil, fmt.Errorf("core: %s of line %d has no topology flow delta", set.kind, i)
			}
			poisoned[i] = true
			mapped[i] = !sc.inService(i)
		}
	}
	for i := range r.TopoFlowDeltas {
		if i < 1 || i > nl || !poisoned[i] {
			return nil, nil, nil, fmt.Errorf("core: line %d carries a topology flow delta but is not poisoned", i)
		}
	}

	// Measurement deltas (Eqs. 6, 7, 13, 14): ΔPL_i = ΔPS_i + ΔPT_i on the
	// forward flow, its negation on the backward flow, and each bus's net
	// inflow change on its consumption measurement.
	deltas = make([]numeric.Q, sys.NumMeasurements()+1)
	for _, ln := range sys.Lines {
		i := ln.ID
		if sc.StrictKnowledge && !sc.knows(i) && theta[ln.From].Cmp(theta[ln.To]) != 0 {
			return nil, nil, nil, fmt.Errorf("core: unknown line %d has a nonzero state difference under strict knowledge", i)
		}
		var flow numeric.Q
		if mapped[i] {
			flow = theta[ln.From].Sub(theta[ln.To]).Mul(sys.ExactAdmittance(i))
		}
		if poisoned[i] {
			flow = flow.Add(numeric.QFromRat(r.TopoFlowDeltas[i]))
		}
		deltas[i] = flow
		deltas[nl+i] = flow.Neg()
		deltas[2*nl+ln.To] = deltas[2*nl+ln.To].Add(flow)
		deltas[2*nl+ln.From] = deltas[2*nl+ln.From].Sub(flow)
	}

	// Alteration (Eqs. 15–19, 23): a taken measurement whose delta is
	// nonzero is altered, which only an alterable one may be.
	hit := make([]bool, sys.Buses+1)
	for id := 1; id < len(deltas); id++ {
		if !sc.Meas.Taken[id] || deltas[id].Sign() == 0 {
			continue
		}
		if !sc.alterable(id) {
			return nil, nil, nil, fmt.Errorf("core: pinned measurement %d has delta %s", id, deltas[id].RatString())
		}
		j, err := sys.HomeBus(id)
		if err != nil {
			return nil, nil, nil, err
		}
		altered = append(altered, id)
		hit[j] = true
	}
	for j, h := range hit {
		if h {
			compromised = append(compromised, j)
		}
	}
	if k := sc.MaxAlteredMeasurements; k > 0 && len(altered) > k {
		return nil, nil, nil, fmt.Errorf("core: attack alters %d measurements, budget is %d", len(altered), k)
	}
	if k := sc.MaxCompromisedBuses; k > 0 && len(compromised) > k {
		return nil, nil, nil, fmt.Errorf("core: attack compromises %d buses, budget is %d", len(compromised), k)
	}

	// Goal (Eqs. 5, 25, 26): cx_j is Δθ_j ≠ 0, or |Δθ_j| ≥ ε under MinChange.
	eps := minChangeEps(sc.MinChange)
	epsQ := numeric.QFromRat(eps)
	cx := func(j int) bool {
		if eps == nil {
			return theta[j].Sign() != 0
		}
		return theta[j].Abs().Cmp(epsQ) >= 0
	}
	target := make(map[int]bool, len(sc.TargetStates))
	for _, t := range sc.TargetStates {
		target[t] = true
		if !cx(t) {
			return nil, nil, nil, fmt.Errorf("core: target state %d is not attacked", t)
		}
	}
	anyState := false
	for j := 1; j <= sys.Buses; j++ {
		if j == sc.RefBus || !cx(j) {
			continue
		}
		anyState = true
		if sc.OnlyTargets && !target[j] {
			return nil, nil, nil, fmt.Errorf("core: non-target state %d is attacked", j)
		}
	}
	for _, j := range sc.UntouchedStates {
		if j != sc.RefBus && cx(j) {
			return nil, nil, nil, fmt.Errorf("core: untouched state %d is attacked", j)
		}
	}
	if sc.AnyState && !anyState {
		return nil, nil, nil, fmt.Errorf("core: no state is attacked")
	}
	for _, p := range sc.DistinctPairs {
		if theta[p[0]].Cmp(theta[p[1]]) == 0 {
			return nil, nil, nil, fmt.Errorf("core: states %d and %d change by the same amount", p[0], p[1])
		}
	}
	return deltas, altered, compromised, nil
}

// ExactMeasurementDeltas checks a feasible Result against the model's exact
// semantics and returns the change the attacker must inject into every
// potential measurement (1-based, index 0 unused). It errors when the
// attack violates any constraint of the scenario, or when the result's
// reported altered measurements or compromised buses differ from the ones
// its state and topology changes imply. Integration tests replay the
// returned deltas against the real WLS estimator.
func ExactMeasurementDeltas(sc *Scenario, res *Result) ([]numeric.Q, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("core: cannot concretize an infeasible result")
	}
	deltas, altered, compromised, err := sc.evaluate(res)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(altered, res.AlteredMeasurements) {
		return nil, fmt.Errorf("core: result reports altered measurements %v, its attack alters %v", res.AlteredMeasurements, altered)
	}
	if !slices.Equal(compromised, res.CompromisedBuses) {
		return nil, fmt.Errorf("core: result reports compromised buses %v, its attack compromises %v", res.CompromisedBuses, compromised)
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
	for i, q := range exact {
		out[i], _ = q.Rat().Float64()
	}
	return out, nil
}
