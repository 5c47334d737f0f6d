package core

import (
	"context"
	"time"

	"segrid/internal/screen"
)

// ScreenScenario runs the LP-relaxation screening tier on a scenario
// without building the SMT model. A definitive verdict (Infeasible or
// FeasibleIntegral) matches what Verify would decide; Inconclusive means
// the caller must fall through to the full model. Errors are reserved for
// malformed scenarios.
func ScreenScenario(ctx context.Context, sc *Scenario, opts screen.Options) (*screen.Result, error) {
	start := time.Now()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	lp := newLPRelaxation(ctx, sc, opts)
	res := lp.run()
	st := lp.s.Statistics()
	res.Stats = screen.Stats{
		Vars:    st.Vars,
		Rows:    st.Rows,
		Pivots:  st.Pivots,
		Probes:  lp.probes,
		Elapsed: time.Since(start),
	}
	return res, nil
}

// ResultFromScreen converts a definitive screening outcome into the
// package's Result vocabulary (no proof handle — the screen's certificate
// lives in the screen.Result). It returns nil for Inconclusive, which has
// no Result equivalent other than running the full model.
func ResultFromScreen(r *screen.Result) *Result {
	switch r.Verdict {
	case screen.Infeasible:
		return &Result{}
	case screen.FeasibleIntegral:
		a := r.Attack
		return &Result{
			Feasible:            true,
			AlteredMeasurements: a.AlteredMeasurements,
			CompromisedBuses:    a.CompromisedBuses,
			ExcludedLines:       a.ExcludedLines,
			IncludedLines:       a.IncludedLines,
			StateChanges:        a.StateChanges,
			TopoFlowDeltas:      a.TopoFlowDeltas,
		}
	default:
		return nil
	}
}
