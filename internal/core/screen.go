package core

import (
	"context"

	"segrid/internal/screen"
)

// screenProblem converts a scenario into the screening tier's pre-resolved
// view: per-line attack admissibility is decided here, with the same rules
// the full model uses, so the screen never re-derives scenario policy.
func screenProblem(sc *Scenario) *screen.Problem {
	sys := sc.System()
	nl := sys.NumLines()
	p := &screen.Problem{
		Sys:             sys,
		RefBus:          sc.RefBus,
		Taken:           sc.Meas.Taken,
		Secured:         sc.Meas.Secured,
		Accessible:      sc.Meas.Accessible,
		Known:           make([]bool, nl+1),
		InService:       make([]bool, nl+1),
		CanExclude:      make([]bool, nl+1),
		CanInclude:      make([]bool, nl+1),
		StrictKnowledge: sc.StrictKnowledge,
		Targets:         sc.TargetStates,
		OnlyTargets:     sc.OnlyTargets,
		Untouched:       sc.UntouchedStates,
		AnyState:        sc.AnyState,
		DistinctPairs:   sc.DistinctPairs,
		MinChangeEps:    minChangeEps(sc.MinChange),
	}
	// The screen treats 0 as unlimited; core uses ≤ 0.
	if sc.MaxAlteredMeasurements > 0 {
		p.MaxAltered = sc.MaxAlteredMeasurements
	}
	if sc.MaxCompromisedBuses > 0 {
		p.MaxBuses = sc.MaxCompromisedBuses
	}
	for i := 1; i <= nl; i++ {
		p.Known[i] = sc.knows(i)
		p.InService[i] = sc.inService(i)
		p.CanExclude[i] = sc.canExclude(i)
		p.CanInclude[i] = sc.canInclude(i)
	}
	return p
}

// ScreenScenario runs the LP-relaxation screening tier on a scenario
// without building the SMT model. A definitive verdict (Infeasible or
// FeasibleIntegral) matches what Verify would decide; Inconclusive means
// the caller must fall through to the full model. Errors are reserved for
// malformed scenarios.
func ScreenScenario(ctx context.Context, sc *Scenario, opts screen.Options) (*screen.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return screen.Check(ctx, screenProblem(sc), opts)
}

// Screen runs the screening tier for this model's scenario. The model's
// solver state (pushed scopes, extra assertions) is NOT consulted — the
// screen answers for the scenario as constructed, so callers layering
// AssertMeasurementsSecured-style refinements must screen a scenario that
// carries them instead.
func (m *Model) Screen(ctx context.Context, opts screen.Options) (*screen.Result, error) {
	return ScreenScenario(ctx, m.sc, opts)
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
