package service

import (
	"fmt"
	"slices"

	"segrid/internal/core"
	"segrid/internal/smt"
)

// Witness reuse (DESIGN §10): each pooled encoder keeps its most recent
// feasible attacks, and a later overlay on it is first tried against them.
// An overlay only shrinks the feasible set, so an earlier attack that
// avoids the newly secured items is often still an attack; whether it is,
// the exact evaluator decides on the overlaid scenario, so no solver trust
// is involved. The same evaluator checks every feasible SMT verdict before
// it is published, and only attacks it accepted enter the ring.

// witnessRingSize bounds the recent feasible attacks kept per pooled
// encoder, most recently used first.
const witnessRingSize = 8

// admits is the O(|overlay|) pre-test a remembered attack must pass before
// the evaluator runs: it alters no newly secured measurement, compromises
// no newly secured bus and fits the overlay's tightened bounds.
// AlteredMeasurements and CompromisedBuses are ascending.
func (ov *overlay) admits(w *core.Result) bool {
	for _, id := range ov.securedMeasurements {
		if _, hit := slices.BinarySearch(w.AlteredMeasurements, id); hit {
			return false
		}
	}
	for _, j := range ov.securedBuses {
		if _, hit := slices.BinarySearch(w.CompromisedBuses, j); hit {
			return false
		}
	}
	return (ov.maxAltered == 0 || len(w.AlteredMeasurements) <= ov.maxAltered) &&
		(ov.maxBuses == 0 || len(w.CompromisedBuses) <= ov.maxBuses)
}

// reuseWitness answers ov from wm's ring: the first remembered attack that
// passes the pre-test and the exact evaluator on the overlaid scenario moves
// to the front and is returned. Nil means the ring holds no attack for ov
// and the caller runs the solver.
func (s *Service) reuseWitness(wm *warmModel, ov *overlay) *core.Result {
	var sc *core.Scenario
	for i, w := range wm.witnesses {
		if !ov.admits(w) {
			continue
		}
		if sc == nil {
			var err error
			if sc, err = overlaid(wm.sc, ov); err != nil {
				break
			}
		}
		if _, err := core.ExactMeasurementDeltas(sc, w); err != nil {
			continue
		}
		copy(wm.witnesses[1:i+1], wm.witnesses[:i])
		wm.witnesses[0] = w
		s.m.witnessReuses.Add(1)
		return w
	}
	s.m.witnessReuseMisses.Add(1)
	return nil
}

// remember puts an evaluator-accepted attack at the front of wm's ring,
// dropping the least recently used one when the ring is full.
func (wm *warmModel) remember(w *core.Result) {
	if len(wm.witnesses) < witnessRingSize {
		wm.witnesses = append(wm.witnesses, nil)
	}
	copy(wm.witnesses[1:], wm.witnesses)
	wm.witnesses[0] = w
}

// replayFeasible checks a definitive feasible SMT verdict on the base
// scenario with ov folded in before it is published. A refused attack is
// counted and answered inconclusive: the solver's model and the exact
// semantics disagree, so the verdict cannot stand. The error is nil when
// res is not a feasible verdict or the evaluator accepts it.
func (s *Service) replayFeasible(base *core.Scenario, ov *overlay, res *core.Result) error {
	if res == nil || !res.Feasible {
		return nil
	}
	sc, err := overlaid(base, ov)
	if err == nil {
		_, err = core.ExactMeasurementDeltas(sc, res)
	}
	if err != nil {
		s.m.feasibleReplayRejects.Add(1)
	}
	return err
}

// replayRejected is the answer for a feasible SMT verdict the exact
// evaluator refused.
func replayRejected(err error) *VerifyResponse {
	return &VerifyResponse{
		Status:        "inconclusive",
		Why:           fmt.Sprintf("the exact evaluator refused the solver's attack: %v", err),
		UnknownReason: unknownToken(smt.ReasonOther),
	}
}
