package screen_test

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"segrid/internal/core"
	"segrid/internal/faultinject"
	"segrid/internal/grid"
	"segrid/internal/screen"
)

func ieee14(t *testing.T) *grid.System {
	t.Helper()
	sys, err := grid.Case("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEmptyGoalAccepts(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	res, err := core.ScreenScenario(context.Background(), sc, screen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.FeasibleIntegral {
		t.Fatalf("empty goal: verdict %v, want feasible", res.Verdict)
	}
	if res.Result == nil || len(res.Result.AlteredMeasurements) != 0 {
		t.Fatalf("empty goal should carry the zero attack, got %+v", res.Result)
	}
}

func TestUnrestrictedTargetAccepts(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.TargetStates = []int{5}
	res, err := core.ScreenScenario(context.Background(), sc, screen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.FeasibleIntegral {
		t.Fatalf("unrestricted target: verdict %v (%s), want feasible", res.Verdict, res.Why)
	}
	atk := res.Result
	if atk == nil || len(atk.AlteredMeasurements) == 0 {
		t.Fatalf("witness should alter measurements, got %+v", atk)
	}
	if atk.StateChanges[5] == nil || atk.StateChanges[5].Sign() == 0 {
		t.Fatalf("witness should change state 5, got %v", atk.StateChanges)
	}
	// The replayed witness must agree with the full model's verdict.
	full, err := core.Verify(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible {
		t.Fatal("full model disagrees with screen accept")
	}
}

func TestAllSecuredRejectsWithCertificates(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.TargetStates = []int{5}
	for id := 1; id <= sc.System().NumMeasurements(); id++ {
		sc.Meas.Secured[id] = true
	}
	res, err := core.ScreenScenario(context.Background(), sc, screen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.Infeasible {
		t.Fatalf("all-secured grid: verdict %v (%s), want infeasible", res.Verdict, res.Why)
	}
	if len(res.Certificates) != 2 {
		t.Fatalf("want one certificate per refuted sign, got %d", len(res.Certificates))
	}
	for _, c := range res.Certificates {
		if err := c.Verify(); err != nil {
			t.Fatalf("certificate does not verify: %v\n%s", err, c)
		}
		if len(c.Bounds) < 2 {
			t.Fatalf("certificate suspiciously small: %s", c)
		}
	}
	full, err := core.Verify(sc)
	if err != nil {
		t.Fatal(err)
	}
	if full.Feasible || full.Inconclusive {
		t.Fatal("full model disagrees with screen reject")
	}
}

// TestCertificateTamper checks that Verify is an actual audit: corrupting
// any part of a valid certificate must be detected.
func TestCertificateTamper(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.TargetStates = []int{5}
	for id := 1; id <= sc.System().NumMeasurements(); id++ {
		sc.Meas.Secured[id] = true
	}
	res, err := core.ScreenScenario(context.Background(), sc, screen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.Infeasible || len(res.Certificates) == 0 {
		t.Fatalf("setup: expected reject with certificates, got %v", res.Verdict)
	}
	orig := res.Certificates[0]

	clone := func() *screen.Certificate {
		c := &screen.Certificate{Desc: orig.Desc}
		for _, bd := range orig.Bounds {
			nb := screen.Bound{Desc: bd.Desc, Lower: bd.Lower, Strict: bd.Strict, Value: new(big.Rat).Set(bd.Value)}
			for _, tm := range bd.Terms {
				nb.Terms = append(nb.Terms, screen.Term{Var: tm.Var, Coeff: new(big.Rat).Set(tm.Coeff)})
			}
			c.Bounds = append(c.Bounds, nb)
		}
		for _, l := range orig.Coeffs {
			c.Coeffs = append(c.Coeffs, new(big.Rat).Set(l))
		}
		return c
	}

	if err := clone().Verify(); err != nil {
		t.Fatalf("pristine clone should verify: %v", err)
	}

	c := clone()
	c.Coeffs[0].Add(c.Coeffs[0], big.NewRat(1, 3))
	if c.Verify() == nil {
		t.Fatal("tampered multiplier accepted")
	}

	c = clone()
	for i := range c.Bounds {
		if len(c.Bounds[i].Terms) > 0 {
			c.Bounds[i].Terms[0].Coeff.Add(c.Bounds[i].Terms[0].Coeff, big.NewRat(7, 2))
			break
		}
	}
	if c.Verify() == nil {
		t.Fatal("tampered bound row accepted")
	}

	c = clone()
	c.Bounds = c.Bounds[:len(c.Bounds)-1]
	c.Coeffs = c.Coeffs[:len(c.Coeffs)-1]
	if c.Verify() == nil {
		t.Fatal("dropped bound accepted")
	}

	c = clone()
	c.Coeffs[0].Neg(c.Coeffs[0])
	if c.Verify() == nil {
		t.Fatal("negative multiplier accepted")
	}
}

func TestPivotBudgetInconclusive(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.TargetStates = []int{5}
	sc.MaxAlteredMeasurements = 3
	res, err := core.ScreenScenario(context.Background(), sc, screen.Options{MaxPivots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != screen.Inconclusive {
		t.Fatalf("one-pivot budget: verdict %v, want inconclusive", res.Verdict)
	}
	if res.Why == "" {
		t.Fatal("inconclusive without a reason")
	}
}

// TestMidScreenCancellationInconclusive proves the degradation contract
// under fault injection: a cancellation firing at any point inside the
// screen must yield Inconclusive — never a definitive verdict, never an
// error from Check.
func TestMidScreenCancellationInconclusive(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.TargetStates = []int{5}
	sc.MaxAlteredMeasurements = 4
	sc.MaxCompromisedBuses = 3
	for _, afterPolls := range []int64{0, 1, 3, 10, 40} {
		inj := faultinject.NewInjector(faultinject.Decision{Kind: faultinject.Cancel, AfterPolls: afterPolls})
		res, err := core.ScreenScenario(context.Background(), sc, screen.Options{
			Stop: func() error { return inj.Interrupt("screen") },
		})
		if err != nil {
			t.Fatalf("afterPolls=%d: %v", afterPolls, err)
		}
		if inj.Fired() && res.Verdict != screen.Inconclusive {
			t.Fatalf("afterPolls=%d: cancellation fired but verdict is %v", afterPolls, res.Verdict)
		}
		if !inj.Fired() && res.Verdict != screen.FeasibleIntegral {
			// Without the fault this instance is a definitive accept; if the
			// injector never fired the screen must still answer it.
			t.Fatalf("afterPolls=%d: injector idle but verdict is %v (%s)", afterPolls, res.Verdict, res.Why)
		}
	}
}

// TestFaultScheduleSweep drives a seeded mix of clean and cancelled screens
// and asserts every cancelled one is Inconclusive and every clean verdict
// matches the no-fault baseline.
func TestFaultScheduleSweep(t *testing.T) {
	sys := ieee14(t)
	sched := faultinject.New(97, faultinject.Config{PCancel: 0.5, MaxAfterPolls: 64})
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for n := 0; n < 40; n++ {
		sc := core.NewScenario(sys)
		sc.TargetStates = []int{2 + rng.Intn(sys.Buses-1)}
		if rng.Intn(2) == 0 {
			sc.MaxAlteredMeasurements = 1 + rng.Intn(6)
		}
		// A modest pivot cap keeps the budget-coupled instances cheap; the
		// cap applies identically to both runs, so verdicts stay comparable.
		base, err := core.ScreenScenario(ctx, sc, screen.Options{MaxPivots: 200})
		if err != nil {
			t.Fatal(err)
		}
		inj := sched.Injector()
		res, err := core.ScreenScenario(ctx, sc, screen.Options{
			MaxPivots: 200,
			Stop:      func() error { return inj.Interrupt("screen") },
		})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case inj.Fired() && res.Verdict != screen.Inconclusive:
			t.Fatalf("round %d: fault fired, verdict %v", n, res.Verdict)
		case !inj.Fired() && res.Verdict != base.Verdict:
			t.Fatalf("round %d: clean run verdict %v, baseline %v", n, res.Verdict, base.Verdict)
		}
	}
}

// TestMalformedScenarioErrors checks that the screen only ever sees a
// scenario that passed Scenario.Validate: a malformed one is an error,
// never a verdict.
func TestMalformedScenarioErrors(t *testing.T) {
	sc := core.NewScenario(ieee14(t))
	sc.RefBus = 99
	if _, err := core.ScreenScenario(context.Background(), sc, screen.Options{}); err == nil {
		t.Fatal("bad reference bus accepted")
	}
	if _, err := core.ScreenScenario(context.Background(), &core.Scenario{RefBus: 1}, screen.Options{}); err == nil {
		t.Fatal("missing measurement configuration accepted")
	}
}
