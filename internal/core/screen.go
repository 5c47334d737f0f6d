package core

import (
	"context"
	"errors"
	"time"

	"segrid/internal/screen"
)

// ScreenResult is a screening outcome: Why explains it, an Infeasible one
// carries a verified Farkas certificate per refuted sign probe, and Result
// is the verdict as a Result (nil when Inconclusive).
type ScreenResult struct {
	Verdict      screen.Verdict
	Why          string
	Certificates []*screen.Certificate
	Result       *Result
	Stats        screen.Stats
}

// ScreenScenario runs the LP-relaxation screening tier on a scenario
// without building the SMT model. A definitive verdict (Infeasible or
// FeasibleIntegral) matches what Verify would decide; Inconclusive means
// the caller must fall through to the full model. Errors are reserved for
// malformed scenarios.
func ScreenScenario(ctx context.Context, sc *Scenario, opts screen.Options) (*ScreenResult, error) {
	start := time.Now()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	lp := newLPRelaxation(ctx, sc, opts)
	res := lp.run()
	certify(res)
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

// certify is the trust gate of a screen reject: an Infeasible verdict
// stands, with an infeasible Result, only if it carries certificates and
// every one verifies. Certificate.Verify checks the Farkas combination, not
// that the relaxation's rows follow from the scenario.
func certify(res *ScreenResult) {
	if res.Verdict != screen.Infeasible {
		return
	}
	err := errors.New("no certificate")
	for _, c := range res.Certificates {
		if err = c.Verify(); err != nil {
			break
		}
	}
	if err != nil {
		*res = ScreenResult{Why: "uncertified reject: " + err.Error()}
		return
	}
	res.Result = &Result{}
}
