package service

import "segrid/internal/core"

// Witness reuse (DESIGN §10): each pooled encoder keeps its most recent
// feasible attacks, and a later overlay on it is first tried against them.
// An earlier attack that core.Overlay.Admits is often still an attack;
// whether it is, the exact evaluator decides, so no solver trust is
// involved. Only attacks core.Model.CheckContext replayed enter the ring.

// witnessRingSize bounds the recent feasible attacks kept per pooled
// encoder, most recently used first.
const witnessRingSize = 8

// reuseWitness answers ov from wm's ring: the first remembered attack that
// passes ov.Admits and then the exact evaluator on the model's scenario
// with ov folded in (built at the first admitted attack) moves to the front
// and is returned; nil sends the caller to the solver.
func (s *Service) reuseWitness(wm *warmModel, ov core.Overlay) *core.Result {
	var sc *core.Scenario
	for i, w := range wm.witnesses {
		if !ov.Admits(w) {
			continue
		}
		if sc == nil {
			var err error
			if sc, err = wm.model.Scenario().With(ov); err != nil {
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
