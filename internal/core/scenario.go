// Package core implements the paper's primary contribution: the formal
// verification model for Undetected False Data Injection (UFDI) attacks
// against DC-model state estimation (Section III), including topology
// poisoning (exclusion/inclusion attacks), attacker knowledge,
// accessibility, resource limits and attack goals. A Scenario describes one
// attack instance; Verify (or Model.Check) decides feasibility and, when
// feasible, extracts the attack vector.
package core

import (
	"fmt"
	"math"
	"math/big"

	"segrid/internal/grid"
	"segrid/internal/smt"
)

// Scenario is a complete UFDI attack verification instance. Per-line and
// per-measurement slices are 1-based (index 0 unused); nil slices take the
// documented defaults.
type Scenario struct {
	// Meas carries the system plus the taken/secured/accessible status of
	// every potential measurement (paper parameters mz, sz, az).
	Meas *grid.MeasurementConfig

	// Knowledge marks the line admittances the attacker knows (bd). nil
	// means complete knowledge.
	Knowledge []bool

	// InService marks lines present in the true topology (tl). nil means
	// all lines in service.
	InService []bool

	// FixedLines marks lines in the core topology that are never opened
	// (fl); they cannot be excluded. nil means no line is fixed.
	FixedLines []bool

	// SecuredStatus marks lines whose breaker/switch status telemetry is
	// integrity-protected (sl); they can be neither excluded nor included.
	// nil means no status is protected.
	SecuredStatus []bool

	// AllowExclusion/AllowInclusion enable topology poisoning attacks
	// (Section III-C). When both are false the model reduces to the
	// classical UFDI setting.
	AllowExclusion bool
	AllowInclusion bool

	// MaxAlteredMeasurements is T_CZ (Eq. 22); ≤ 0 means unlimited.
	MaxAlteredMeasurements int

	// MaxCompromisedBuses is T_CB (Eq. 24); ≤ 0 means unlimited.
	MaxCompromisedBuses int

	// RefBus is the angle reference bus; its state cannot be attacked.
	RefBus int

	// TargetStates lists buses whose states the attacker must corrupt
	// (Eq. 25).
	TargetStates []int

	// OnlyTargets additionally forbids corrupting any non-target state
	// ("attack state 12 only" in the paper's Objective 2).
	OnlyTargets bool

	// UntouchedStates lists specific states that must remain correct
	// (a weaker form of OnlyTargets).
	UntouchedStates []int

	// AnyState replaces explicit targets with the goal "at least one
	// (non-reference) state is corrupted" — the attacker model used when
	// synthesizing countermeasures.
	AnyState bool

	// DistinctPairs requires the listed state pairs to change by different
	// amounts (Eq. 26), ruling out island-shift attacks with no relative
	// impact.
	DistinctPairs [][2]int

	// MinChange, when positive, strengthens the attack goal beyond the
	// paper's Eq. 5: a corrupted state must deviate by at least this
	// amount (|Δθ_j| ≥ MinChange), modeling an attacker who needs a
	// *significant* corruption rather than any nonzero one. Zero keeps the
	// paper's semantics. (Extension; see DESIGN.md §5.)
	MinChange float64

	// StrictKnowledge enables an extension beyond the paper's Eq. 17: for
	// a line with unknown admittance the attacker must keep the end-bus
	// state changes equal and cannot poison its status, because otherwise
	// the required measurement adjustments at adjacent buses are
	// incomputable. Off by default (paper-faithful).
	StrictKnowledge bool

	// Solver options; zero value means smt.DefaultOptions.
	Options *smt.Options
}

// NewScenario returns a scenario for the system with every default in the
// paper's "strongest attacker" position: all measurements taken and
// accessible, none secured, full knowledge, no topology attacks, unlimited
// resources, reference bus 1, and no goal (callers set targets or AnyState).
func NewScenario(sys *grid.System) *Scenario {
	return &Scenario{
		Meas:   grid.NewMeasurementConfig(sys),
		RefBus: 1,
	}
}

// System returns the scenario's network.
func (sc *Scenario) System() *grid.System { return sc.Meas.System() }

// lineFlag reads a per-line flag slice with a default.
func lineFlag(s []bool, id int, def bool) bool {
	if s == nil {
		return def
	}
	return s[id]
}

// knows reports whether the attacker knows line id's admittance.
func (sc *Scenario) knows(id int) bool { return lineFlag(sc.Knowledge, id, true) }

// inService reports whether line id is in the true topology.
func (sc *Scenario) inService(id int) bool { return lineFlag(sc.InService, id, true) }

// fixed reports whether line id belongs to the core topology.
func (sc *Scenario) fixed(id int) bool { return lineFlag(sc.FixedLines, id, false) }

// statusSecured reports whether line id's status telemetry is protected.
func (sc *Scenario) statusSecured(id int) bool { return lineFlag(sc.SecuredStatus, id, false) }

// canExclude reports whether an exclusion attack on line id is admissible
// (Eq. 9 preconditions plus the scenario switch).
func (sc *Scenario) canExclude(id int) bool {
	return sc.AllowExclusion && sc.inService(id) && !sc.fixed(id) && !sc.statusSecured(id)
}

// canInclude reports whether an inclusion attack on line id is admissible
// (Eq. 10 preconditions plus the scenario switch).
func (sc *Scenario) canInclude(id int) bool {
	return sc.AllowInclusion && !sc.inService(id) && !sc.statusSecured(id)
}

// statusAttackable reports whether line id's status can actually be
// poisoned: an admissible exclusion or inclusion that strict knowledge does
// not rule out (the SMT model forces el/il false on unknown lines).
func (sc *Scenario) statusAttackable(id int) bool {
	return (sc.canExclude(id) || sc.canInclude(id)) && (!sc.StrictKnowledge || sc.knows(id))
}

// alterable reports whether the attacker may change measurement id: it is
// taken, accessible and unsecured (Eq. 19), and not the flow of a line
// whose admittance the attacker does not know (Eq. 17). The delta of every
// other taken measurement is pinned to zero.
func (sc *Scenario) alterable(id int) bool {
	m := sc.Meas
	if !m.Taken[id] || !m.Accessible[id] || m.Secured[id] {
		return false
	}
	kind, ref, err := sc.System().DecodeMeas(id)
	return err == nil && (kind == grid.MeasInjection || sc.knows(ref))
}

// MinChange is quantized to minChangeQuantum (see minChangeEps). A positive
// value below the quantum would round to ε = 0 and one above maxMinChange
// would overflow the int64 numerator; either way the threshold would
// silently vanish, so Validate rejects both.
const (
	minChangeQuantum = 1e-9
	maxMinChange     = 1e9
)

// minChangeEps is the exact rational MinChange threshold (nil when the
// extension is off), rounded to minChangeQuantum. The threshold does not
// need to be bit-exact with the float input, but both lowerings and the
// exact evaluator must agree on it, so all of them go through here.
func minChangeEps(minChange float64) *big.Rat {
	if minChange <= 0 {
		return nil
	}
	return big.NewRat(int64(math.Round(minChange*1e9)), 1_000_000_000)
}

// Validate checks scenario consistency. NewModel and the screening entry
// points run it before encoding; planners run it to reject a malformed
// scenario before scheduling any work.
func (sc *Scenario) Validate() error {
	if sc.Meas == nil {
		return fmt.Errorf("core: scenario has no measurement configuration")
	}
	sys := sc.System()
	l, b := sys.NumLines(), sys.Buses
	checkLineSlice := func(name string, s []bool) error {
		if s != nil && len(s) != l+1 {
			return fmt.Errorf("core: %s has length %d, want %d (1-based per line)", name, len(s), l+1)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		s    []bool
	}{
		{"Knowledge", sc.Knowledge},
		{"InService", sc.InService},
		{"FixedLines", sc.FixedLines},
		{"SecuredStatus", sc.SecuredStatus},
	} {
		if err := checkLineSlice(c.name, c.s); err != nil {
			return err
		}
	}
	if sc.RefBus < 1 || sc.RefBus > b {
		return fmt.Errorf("core: reference bus %d out of range 1..%d", sc.RefBus, b)
	}
	for _, t := range sc.TargetStates {
		if t < 1 || t > b {
			return fmt.Errorf("core: target state %d out of range 1..%d", t, b)
		}
		if t == sc.RefBus {
			return fmt.Errorf("core: target state %d is the reference bus", t)
		}
	}
	for _, t := range sc.UntouchedStates {
		if t < 1 || t > b {
			return fmt.Errorf("core: untouched state %d out of range 1..%d", t, b)
		}
	}
	for _, p := range sc.DistinctPairs {
		for _, t := range p {
			if t < 1 || t > b {
				return fmt.Errorf("core: distinct-pair state %d out of range 1..%d", t, b)
			}
		}
	}
	if sc.AnyState && len(sc.TargetStates) > 0 {
		return fmt.Errorf("core: AnyState and TargetStates are mutually exclusive")
	}
	if !(sc.MinChange >= 0) {
		return fmt.Errorf("core: MinChange must be non-negative, got %v", sc.MinChange)
	}
	if sc.MinChange > 0 && (sc.MinChange < minChangeQuantum || sc.MinChange > maxMinChange) {
		return fmt.Errorf("core: MinChange %v outside [%g, %g]: the threshold is exact only to %g",
			sc.MinChange, minChangeQuantum, maxMinChange, minChangeQuantum)
	}
	return nil
}
