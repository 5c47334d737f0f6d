package service

import (
	"fmt"

	"segrid/internal/core"
	"segrid/internal/smt"
)

// Witness reuse (DESIGN §10): each pooled encoder keeps its most recent
// feasible attacks, and a later overlay on it is first tried against them.
// An earlier attack that core.Overlay.Admits is often still an attack;
// whether it is, the exact evaluator decides on core.Scenario.With, so no
// solver trust is involved. The same evaluator checks every feasible SMT
// verdict before it is published, and only attacks it accepted enter the
// ring.

// witnessRingSize bounds the recent feasible attacks kept per pooled
// encoder, most recently used first.
const witnessRingSize = 8

// reuseWitness answers ov from wm's ring: the first remembered attack that
// passes ov.Admits and then the exact evaluator on effective() moves to the
// front and is returned; nil sends the caller to the solver. effective
// builds wm.sc.With(ov) once, on first use: a feasible miss replays on the
// same copy, and an item whose attacks all fail the pre-test builds none.
func (s *Service) reuseWitness(wm *warmModel, ov core.Overlay, effective func() (*core.Scenario, error)) *core.Result {
	for i, w := range wm.witnesses {
		if !ov.Admits(w) {
			continue
		}
		sc, err := effective()
		if err != nil {
			break
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

// replayFeasible checks a definitive feasible SMT verdict on effective(),
// the item's scenario with its overlay folded in, before it is published. A
// refused attack is counted and answered inconclusive: the solver's model
// and the exact semantics disagree, so the verdict cannot stand. The error
// is nil when res is not a feasible verdict or the evaluator accepts it.
func (s *Service) replayFeasible(effective func() (*core.Scenario, error), res *core.Result) error {
	if res == nil || !res.Feasible {
		return nil
	}
	sc, err := effective()
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
