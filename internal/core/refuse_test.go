package core

import (
	"context"
	"errors"
	"testing"

	"segrid/internal/grid"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// anyStateModel encodes the ieee14 any-state attack, whose every attack
// alters several measurements.
func anyStateModel(t *testing.T) *Model {
	t.Helper()
	sc := NewScenario(grid.IEEE14())
	sc.AnyState = true
	m, err := NewModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wantRefused fails unless res is the answer to a feasible verdict the
// exact evaluator refused.
func wantRefused(t *testing.T, res *Result) {
	t.Helper()
	if res.Feasible || !res.Inconclusive || res.Stats.Unknown != smt.ReasonOther || !errors.Is(res.Why, ErrRefused) {
		t.Fatalf("check = feasible %v, inconclusive %v, reason %v, why %v; want inconclusive, other, ErrRefused",
			res.Feasible, res.Inconclusive, res.Stats.Unknown, res.Why)
	}
}

// TestCheckRefusesScenarioDisagreement tightens a Model's scenario after
// encoding, so the solver's attack breaks a bound the encoding never saw:
// the check must refuse it rather than publish it.
func TestCheckRefusesScenarioDisagreement(t *testing.T) {
	m := anyStateModel(t)
	m.Scenario().MaxAlteredMeasurements = 1
	res, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	wantRefused(t, res)
}

// TestCheckReplaysLiveOverlays makes a recorded overlay disagree with what
// its scope asserted: the replay must see the overlay while its scope is
// live and drop it with the Pop.
func TestCheckReplaysLiveOverlays(t *testing.T) {
	m := anyStateModel(t)
	m.Push()
	if err := m.Assert(Overlay{}); err != nil {
		t.Fatal(err)
	}
	m.overlays[0].MaxAltered = 1
	res, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	wantRefused(t, res)
	if err := m.Pop(); err != nil {
		t.Fatal(err)
	}
	if res, err = m.Check(); err != nil || !res.Feasible {
		t.Fatalf("check after Pop = %+v, %v; want feasible", res, err)
	}
}

// TestAssertOutsideModelScopeErrors checks that an overlay cannot hide from
// the replay in a scope opened on the solver directly, and that Pop only
// closes scopes Push opened.
func TestAssertOutsideModelScopeErrors(t *testing.T) {
	m := anyStateModel(t)
	m.Solver().Push()
	if err := m.Assert(Overlay{SecuredBuses: []int{1}}); err == nil {
		t.Fatal("Assert inside a Solver().Push scope succeeded")
	}
	if err := m.Pop(); err == nil {
		t.Fatal("Pop closed a scope Model.Push did not open")
	}
	if err := m.Solver().Pop(); err != nil {
		t.Fatal(err)
	}
	if err := m.Pop(); err == nil {
		t.Fatal("Pop closed the base scope")
	}
	m.Push()
	if err := m.Assert(Overlay{SecuredBuses: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Pop(); err != nil {
		t.Fatal(err)
	}
}

// TestScreenRefusesCorruptCertificate negates one Farkas coefficient of the
// ieee14-any-b13689 screen reject (a pin of TestVerifySearchPath): the gate
// ScreenScenario passes every reject through must turn it inconclusive.
func TestScreenRefusesCorruptCertificate(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.AnyState = true
	for _, j := range []int{1, 3, 6, 8, 9} {
		if err := sc.Meas.SecureBus(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ScreenScenario(context.Background(), sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.Infeasible || res.Result == nil || res.Result.Feasible || len(res.Certificates) == 0 {
		t.Fatalf("setup: screen = %v (%s), want a certified reject", res.Verdict, res.Why)
	}
	c := res.Certificates[len(res.Certificates)-1]
	c.Coeffs[0].Neg(c.Coeffs[0])
	certify(res)
	if res.Verdict != screen.Inconclusive || res.Result != nil {
		t.Fatalf("corrupt certificate: screen = %v with result %+v, want inconclusive", res.Verdict, res.Result)
	}
}
