package synth

import (
	"context"

	"segrid/internal/core"
	"segrid/internal/screen"
)

// screeningOn decides whether a run uses the LP-relaxation screening
// pre-filter. Proof-logging runs skip it: a candidate check the screen
// answers would leave no certificate in the attack model's stream, and the
// stream's completeness (one certificate per refuting check) is the point
// of asking for proofs.
func screeningOn(req *Requirements) bool {
	return !req.NoScreen && req.ProofDir == ""
}

// screenCandidate runs the LP screening tier on sc.With(ov), ov securing one
// candidate, before any SMT work. Infeasible means the scenario provably
// resists the candidate (skip its SMT model); FeasibleIntegral means the
// candidate is provably defeated, support carrying the witness attack's
// compromised buses for hitting-set blocking. Anything else, failures
// included, is Inconclusive and falls through to the solver: the
// pre-filter can only save work, never change a verdict.
func screenCandidate(ctx context.Context, sc *core.Scenario, ov core.Overlay) (screen.Verdict, []int) {
	scc, err := sc.With(ov)
	if err != nil {
		return screen.Inconclusive, nil
	}
	res, err := core.ScreenScenario(ctx, scc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	if err != nil {
		return screen.Inconclusive, nil
	}
	if res.Verdict == screen.FeasibleIntegral {
		return res.Verdict, res.Result.CompromisedBuses
	}
	return res.Verdict, nil
}
