package service

import (
	"slices"
	"strconv"

	"segrid/internal/core"
)

// Witness reuse (DESIGN §10): each pooled encoder keeps its most recent
// feasible attacks, and a later overlay on it is first tried against them.
// An earlier attack that core.Overlay.Admits is often still an attack;
// whether it is, the exact evaluator decides, so no solver trust is
// involved. Only attacks core.Model.CheckContext replayed enter the ring.

// witnessRingSize bounds the recent feasible attacks kept per pooled
// encoder, most recently used first.
const witnessRingSize = 8

// witness is one ring entry: a feasible attack and its StateChanges
// rendered for the wire once, as bus, value, bus, value, ... An attack does
// not change while it sits in the ring, so every answer it gives reuses the
// strings.
type witness struct {
	res   *core.Result
	state []string
}

// newWitness renders a feasible attack's state changes for the wire.
func newWitness(res *core.Result) *witness {
	state := make([]string, 0, 2*len(res.StateChanges))
	for bus, v := range res.StateChanges {
		state = append(state, strconv.Itoa(bus), v.RatString())
	}
	return &witness{res: res, state: state}
}

// response is the feasible answer w gives. The response owns its slices
// and its StateChanges map; it shares only immutable strings with w, so a
// caller editing it cannot change what the ring answers next.
func (w *witness) response(warm bool, retries int) *VerifyResponse {
	r := &VerifyResponse{
		Status:              "feasible",
		Warm:                warm,
		Retries:             retries,
		AlteredMeasurements: slices.Clone(w.res.AlteredMeasurements),
		CompromisedBuses:    slices.Clone(w.res.CompromisedBuses),
		ExcludedLines:       slices.Clone(w.res.ExcludedLines),
		IncludedLines:       slices.Clone(w.res.IncludedLines),
	}
	if len(w.state) > 0 {
		r.StateChanges = make(map[string]string, len(w.state)/2)
		for i := 0; i < len(w.state); i += 2 {
			r.StateChanges[w.state[i]] = w.state[i+1]
		}
	}
	return r
}

// reuseWitness answers ov from wm's ring: the first remembered attack that
// passes ov.Admits and then the exact evaluator on the model's scenario
// with ov folded in (built at the first admitted attack) moves to the front
// and is returned; nil sends the caller to the solver.
func (s *Service) reuseWitness(wm *warmModel, ov core.Overlay) *witness {
	var sc *core.Scenario
	for i, w := range wm.witnesses {
		if !ov.Admits(w.res) {
			continue
		}
		if sc == nil {
			var err error
			if sc, err = wm.model.Scenario().With(ov); err != nil {
				break
			}
		}
		if _, err := core.ExactMeasurementDeltas(sc, w.res); err != nil {
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

// remember renders an evaluator-accepted attack and puts it at the front of
// wm's ring, dropping the least recently used one when the ring is full.
func (wm *warmModel) remember(res *core.Result) *witness {
	w := newWitness(res)
	if len(wm.witnesses) < witnessRingSize {
		wm.witnesses = append(wm.witnesses, nil)
	}
	copy(wm.witnesses[1:], wm.witnesses)
	wm.witnesses[0] = w
	return w
}
