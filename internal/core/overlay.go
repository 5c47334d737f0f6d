package core

import (
	"fmt"
	"slices"

	"segrid/internal/grid"
)

// Overlay is a per-check delta on an attack scenario: extra integrity
// protections (Eq. 28 applied to the attack model) and tightened T_CZ
// (Eq. 22) and T_CB (Eq. 24) bounds, zero leaving a bound alone. It only
// shrinks the feasible set: a bound is never loosened (With keeps the
// tighter one, Assert adds a second one), so an overlay asserted in a
// Push/Pop scope on an encoder of sc answers sc.With(ov), and Pop retracts
// it exactly. Loosening a bound or changing the goal needs another encoder.
type Overlay struct {
	SecuredBuses, SecuredMeasurements []int
	MaxAltered, MaxBuses              int
}

// Validate range-checks ov against sys, so that With and Assert cannot fail
// on a scenario of sys.
func (ov Overlay) Validate(sys *grid.System) error {
	for _, j := range ov.SecuredBuses {
		if j < 1 || j > sys.Buses {
			return fmt.Errorf("core: secured bus %d out of range 1..%d", j, sys.Buses)
		}
	}
	for _, id := range ov.SecuredMeasurements {
		if id < 1 || id > sys.NumMeasurements() {
			return fmt.Errorf("core: secured measurement %d out of range 1..%d", id, sys.NumMeasurements())
		}
	}
	if ov.MaxAltered < 0 || ov.MaxBuses < 0 {
		return fmt.Errorf("core: overlay bounds must be >= 0, got T_CZ %d and T_CB %d", ov.MaxAltered, ov.MaxBuses)
	}
	return nil
}

// With returns a shallow copy of sc with ov folded in and its own
// measurement configuration, leaving sc untouched.
func (sc *Scenario) With(ov Overlay) (*Scenario, error) {
	out := *sc
	out.Meas = sc.Meas.Clone()
	for _, j := range ov.SecuredBuses {
		if err := out.Meas.SecureBus(j); err != nil {
			return nil, err
		}
	}
	if err := out.Meas.Secure(ov.SecuredMeasurements...); err != nil {
		return nil, err
	}
	tighten := func(bound *int, k int) {
		if k > 0 && (*bound == 0 || k < *bound) {
			*bound = k
		}
	}
	tighten(&out.MaxAlteredMeasurements, ov.MaxAltered)
	tighten(&out.MaxCompromisedBuses, ov.MaxBuses)
	return &out, nil
}

// Push opens a solver scope for overlays; Pop retracts it and them.
func (m *Model) Push() {
	m.solver.Push()
	m.marks = append(m.marks, len(m.overlays))
}

// Pop closes the innermost scope Push opened, and errors on any other.
func (m *Model) Pop() error {
	top := len(m.marks) - 1
	if n := m.solver.NumScopes(); top < 0 || n != top+2 {
		return fmt.Errorf("core: Pop at solver scope depth %d, which Model.Push did not open", n)
	}
	m.overlays, m.marks = m.overlays[:m.marks[top]], m.marks[:top]
	return m.solver.Pop()
}

// Assert asserts ov in the innermost scope Push opened (the base scope when
// none is open) and records it for the replay of feasible verdicts: secured
// buses, secured measurements, T_CZ, then T_CB. The warm search depends on
// that order. It errors when the solver holds a scope Push did not open, so
// that no overlay hides from the replay. ov's slices are kept until the Pop.
func (m *Model) Assert(ov Overlay) error {
	if n := m.solver.NumScopes(); n != len(m.marks)+1 {
		return fmt.Errorf("core: Assert at solver scope depth %d, but Model.Push opened %d scopes", n, len(m.marks))
	}
	if err := m.AssertBusesSecured(ov.SecuredBuses); err != nil {
		return err
	}
	if err := m.AssertMeasurementsSecured(ov.SecuredMeasurements); err != nil {
		return err
	}
	if ov.MaxAltered > 0 {
		if err := m.AssertMaxAlteredMeasurements(ov.MaxAltered); err != nil {
			return err
		}
	}
	if ov.MaxBuses > 0 {
		m.assertMaxCompromisedBuses(ov.MaxBuses)
	}
	m.overlays = append(m.overlays, ov)
	return nil
}

// Admits is the O(|ov| log |w|) pre-test of an earlier feasible attack w: it
// alters no measurement ov secures, compromises no bus ov secures and fits
// ov's bounds. It only filters: the exact evaluator on sc.With(ov) refuses
// every attack Admits refuses, and must still check every one it admits.
// w's AlteredMeasurements and CompromisedBuses are ascending.
func (ov Overlay) Admits(w *Result) bool {
	for _, id := range ov.SecuredMeasurements {
		if _, hit := slices.BinarySearch(w.AlteredMeasurements, id); hit {
			return false
		}
	}
	for _, j := range ov.SecuredBuses {
		if _, hit := slices.BinarySearch(w.CompromisedBuses, j); hit {
			return false
		}
	}
	return (ov.MaxAltered == 0 || len(w.AlteredMeasurements) <= ov.MaxAltered) &&
		(ov.MaxBuses == 0 || len(w.CompromisedBuses) <= ov.MaxBuses)
}
