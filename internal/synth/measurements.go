package synth

import (
	"context"
	"time"

	"segrid/internal/core"
)

// MeasurementRequirements configures measurement-granular synthesis: the
// paper notes (Section IV-A) that the same mechanism that selects buses
// "can be used for synthesizing security architecture with respect to
// measurements only". The budget counts individual measurements.
type MeasurementRequirements struct {
	// Attack is the attacker profile to defend against.
	Attack *core.Scenario

	// ExtraAttacks lists additional profiles the selection must also
	// resist (see Requirements.ExtraAttacks).
	ExtraAttacks []*core.Scenario

	// MaxSecuredMeasurements is the operator's budget T_SM.
	MaxSecuredMeasurements int

	// ExcludedMeasurements cannot be secured; RequiredMeasurements must be.
	ExcludedMeasurements []int
	RequiredMeasurements []int

	// MaxIterations bounds the synthesis loop; ≤ 0 means unlimited.
	// Exhausting it returns a *BudgetExhaustedError (see Requirements).
	MaxIterations int

	// Limits bounds the run's wall clock and per-candidate solver budgets;
	// the zero value means unbounded.
	Limits Limits

	// ProofDir enables UNSAT certificate logging for the verification
	// solvers, exactly as Requirements.ProofDir does for bus-granular
	// synthesis (collision-safe per-run file names, atomic publication).
	ProofDir string

	// ProofTag overrides the generated per-run certificate name component;
	// see Requirements.ProofTag.
	ProofTag string
}

// MeasurementArchitecture is a synthesized measurement-protection set.
type MeasurementArchitecture struct {
	// SecuredMeasurements lists the measurement IDs to protect, ascending.
	SecuredMeasurements []int

	// Iterations counts synthesis loop iterations.
	Iterations int

	// SelectTime and VerifyTime split the synthesis wall time.
	SelectTime time.Duration
	VerifyTime time.Duration

	// ProofFiles lists the UNSAT certificate files written during
	// verification when ProofDir was set, in attack-model order.
	ProofFiles []string
}

// Duration is the total synthesis time.
func (a *MeasurementArchitecture) Duration() time.Duration {
	return a.SelectTime + a.VerifyTime
}

// SynthesizeMeasurements runs Algorithm 1 at measurement granularity. It
// is SynthesizeMeasurementsContext with a background context.
func SynthesizeMeasurements(req *MeasurementRequirements) (*MeasurementArchitecture, error) {
	return SynthesizeMeasurementsContext(context.Background(), req)
}

// SynthesizeMeasurementsContext runs measurement-granular synthesis under
// ctx and the requirements' Limits, with the same contract as
// SynthesizeContext: *BudgetExhaustedError on give-up, ErrNoArchitecture
// only on a proof of impossibility, ErrInvalidRequirements on malformed
// requirements.
func SynthesizeMeasurementsContext(ctx context.Context, req *MeasurementRequirements) (*MeasurementArchitecture, error) {
	j := measurementJob(req)
	if err := j.validate(); err != nil {
		return nil, err
	}
	ids, w, err := j.runSequential(ctx)
	if err != nil {
		return nil, err
	}
	return &MeasurementArchitecture{
		SecuredMeasurements: ids,
		Iterations:          int(w.iters.Load()),
		SelectTime:          w.selectTime,
		VerifyTime:          w.verifyTime,
		ProofFiles:          w.paths,
	}, nil
}

// measurementJob is synthesis over the measurement space: every taken
// measurement is selectable, with no extra clauses and no screen. The
// search keeps saved phases and has no full-budget phase; DESIGN.md §3 gives
// the measurements behind both choices.
func measurementJob(req *MeasurementRequirements) *job {
	j := &job{
		space: space{
			kind:    "measurement",
			overlay: func(ids []int) core.Overlay { return core.Overlay{SecuredMeasurements: ids} },
			support: func(r *core.Result) []int { return r.AlteredMeasurements },
		},
		scenarios:     append([]*core.Scenario{req.Attack}, req.ExtraAttacks...),
		budget:        req.MaxSecuredMeasurements,
		excluded:      req.ExcludedMeasurements,
		required:      req.RequiredMeasurements,
		maxIterations: req.MaxIterations,
		limits:        req.Limits,
		proofDir:      req.ProofDir,
		proofTag:      req.ProofTag,
	}
	if req.Attack == nil || req.Attack.Meas == nil {
		return j // validate reports it
	}
	for id := 1; id <= req.Attack.System().NumMeasurements(); id++ {
		if req.Attack.Meas.Taken[id] {
			j.ids = append(j.ids, id)
		}
	}
	return j
}
