package core

import (
	"fmt"
	"math/big"

	"segrid/internal/lpbuild"
)

// replay lifts a relaxed solution to a concrete attack — an integral status
// decision per poisonable line, rescaled for MinChange — and accepts it
// only if the exact evaluator does. It returns nil with a reason when the
// solution does not round-trip (fractional resource usage, an unrealizable
// topology assignment, a state vector that a MinChange threshold cannot
// separate), in which case the screen answers Inconclusive and the SMT
// tier decides. A non-nil return is a definitive fast-accept: no trust in
// the relaxation is required.
//
// anyBus is the witness bus chosen for an AnyState goal (0 when the goal
// has none).
func (lp *lpRelaxation) replay(model []*big.Rat, anyBus int) (*Result, string) {
	sc, sys := lp.sc, lp.sys

	th := make([]*big.Rat, sys.Buses+1)
	for j := 1; j <= sys.Buses; j++ {
		th[j] = model[lp.theta[j]]
	}

	// Classify every poisonable line by its measured-flow delta f against
	// the state-implied y·(Δθf − Δθt).
	var excluded, included []int
	dpt := make(map[int]*big.Rat)
	for i := 1; i <= sys.NumLines(); i++ {
		if !sc.statusAttackable(i) {
			continue
		}
		ln := sys.Line(i)
		implied := new(big.Rat).Sub(th[ln.From], th[ln.To])
		implied.Mul(implied, lpbuild.AdmittanceRat(ln.Admittance))
		f := model[lp.fvar[i]]
		if sc.inService(i) { // excludable
			switch {
			case f.Cmp(implied) == 0:
				// Line kept: measured flow tracks the state.
			case f.Sign() != 0:
				excluded = append(excluded, i)
				dpt[i] = f
			default:
				return nil, fmt.Sprintf("replay: line %d measured flow is zero but its state-implied flow is not — exclusion cannot realize it", i)
			}
		} else { // includable
			switch {
			case f.Sign() == 0:
				// Line left out: no measured flow.
			case f.Cmp(implied) != 0:
				included = append(included, i)
				dpt[i] = new(big.Rat).Sub(f, implied)
			default:
				return nil, fmt.Sprintf("replay: line %d measured flow equals its state-implied flow — inclusion needs a nonzero topology delta", i)
			}
		}
	}

	scale, why := lp.minChangeScale(th, anyBus)
	if scale == nil {
		return nil, why
	}
	r := &Result{
		Feasible:       true,
		ExcludedLines:  excluded,
		IncludedLines:  included,
		StateChanges:   make(map[int]*big.Rat),
		TopoFlowDeltas: make(map[int]*big.Rat, len(dpt)),
	}
	for j := 1; j <= sys.Buses; j++ {
		if th[j].Sign() != 0 {
			r.StateChanges[j] = new(big.Rat).Mul(scale, th[j])
		}
	}
	for i, d := range dpt {
		r.TopoFlowDeltas[i] = new(big.Rat).Mul(scale, d)
	}
	_, altered, compromised, err := sc.evaluate(r)
	if err != nil {
		return nil, "replay: " + err.Error()
	}
	r.AlteredMeasurements, r.CompromisedBuses = altered, compromised
	return r, ""
}

// minChangeScale returns the factor that makes a relaxed state vector
// meet the MinChange goal (1 when the extension is off), or nil with a
// reason. The full model reads "attacked" as |Δθ| ≥ ε and "untouched" as
// |Δθ| < ε. Every other constraint is positively homogeneous, so a uniform
// scale factor moves the significant states above ε and the
// must-stay-quiet states below it — when a gap exists.
func (lp *lpRelaxation) minChangeScale(th []*big.Rat, anyBus int) (*big.Rat, string) {
	sc, eps := lp.sc, lp.eps
	if eps == nil {
		return big.NewRat(1, 1), ""
	}
	mustOn := make(map[int]bool)
	for _, t := range sc.TargetStates {
		mustOn[t] = true
	}
	if anyBus != 0 {
		mustOn[anyBus] = true
	}
	mustOff := make(map[int]bool)
	for _, j := range sc.UntouchedStates {
		if j != sc.RefBus {
			mustOff[j] = true
		}
	}
	if sc.OnlyTargets {
		for j := 1; j <= lp.sys.Buses; j++ {
			if j != sc.RefBus && !mustOn[j] {
				mustOff[j] = true
			}
		}
	}
	var minOn, maxOff *big.Rat
	for j := range mustOn {
		if mustOff[j] {
			return nil, fmt.Sprintf("replay: state %d must be both significant and insignificant", j)
		}
		a := new(big.Rat).Abs(th[j])
		if a.Sign() == 0 {
			return nil, fmt.Sprintf("replay: required state %d unchanged (internal error)", j)
		}
		if minOn == nil || a.Cmp(minOn) < 0 {
			minOn = a
		}
	}
	for j := range mustOff {
		a := new(big.Rat).Abs(th[j])
		if maxOff == nil || a.Cmp(maxOff) > 0 {
			maxOff = a
		}
	}
	switch {
	case minOn != nil:
		if maxOff != nil && maxOff.Cmp(minOn) >= 0 {
			return nil, "replay: relaxed witness cannot separate significant from insignificant state changes"
		}
		return new(big.Rat).Quo(eps, minOn), ""
	case maxOff != nil && maxOff.Sign() != 0:
		// Only quiet-side constraints (distinct-pair goals scale freely):
		// shrink everything safely below ε.
		return new(big.Rat).Quo(eps, new(big.Rat).Mul(big.NewRat(2, 1), maxOff)), ""
	}
	return big.NewRat(1, 1), ""
}
