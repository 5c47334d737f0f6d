package core

import (
	"reflect"
	"testing"

	"segrid/internal/grid"
	"segrid/internal/smt"
)

func verify(t *testing.T, sc *Scenario) *Result {
	t.Helper()
	res, err := Verify(sc)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

// TestObjective2Exact reproduces the paper's Attack Objective 2 exactly:
// attacking state 12 alone requires altering measurements 12, 32, 39, 46
// and 53.
func TestObjective2Exact(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatalf("objective 2 infeasible, paper says feasible")
	}
	want := []int{12, 32, 39, 46, 53}
	if !reflect.DeepEqual(res.AlteredMeasurements, want) {
		t.Fatalf("altered = %v, want %v (paper Section III-I)", res.AlteredMeasurements, want)
	}
	wantBuses := []int{6, 12, 13}
	if !reflect.DeepEqual(res.CompromisedBuses, wantBuses) {
		t.Fatalf("buses = %v, want %v", res.CompromisedBuses, wantBuses)
	}
	if _, ok := res.StateChanges[12]; !ok {
		t.Fatalf("state 12 not in StateChanges")
	}
	if len(res.StateChanges) != 1 {
		t.Fatalf("StateChanges = %v, want only state 12", res.StateChanges)
	}
}

// TestObjective2Secured46 reproduces: securing measurement 46 makes the
// attack impossible.
func TestObjective2Secured46(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	if err := sc.Meas.Secure(46); err != nil {
		t.Fatalf("Secure: %v", err)
	}
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	if res := verify(t, sc); res.Feasible {
		t.Fatalf("objective 2 feasible with measurement 46 secured, paper says infeasible")
	}
}

// TestObjective2TopologyPoisoning reproduces: with topology poisoning the
// attacker excludes line 13 and alters measurements 12, 13, 32, 33, 39, 53,
// evading the protection of measurement 46.
func TestObjective2TopologyPoisoning(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	if err := sc.Meas.Secure(46); err != nil {
		t.Fatalf("Secure: %v", err)
	}
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	sc.AllowExclusion = true
	sc.AllowInclusion = true
	sc.InService, sc.FixedLines, sc.SecuredStatus = CaseStudyTopology()
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatalf("topology-poisoning attack infeasible, paper says feasible")
	}
	if !reflect.DeepEqual(res.ExcludedLines, []int{13}) {
		t.Fatalf("excluded = %v, want [13]", res.ExcludedLines)
	}
	want := []int{12, 13, 32, 33, 39, 53}
	if !reflect.DeepEqual(res.AlteredMeasurements, want) {
		t.Fatalf("altered = %v, want %v", res.AlteredMeasurements, want)
	}
	if len(res.IncludedLines) != 0 {
		t.Fatalf("unexpected inclusions %v", res.IncludedLines)
	}
}

// objective1Scenario builds the paper's Attack Objective 1 configuration:
// Table III taken and secured sets, Table II knowledge (lines 3, 7, 17
// unknown), targets 9 and 10.
func objective1Scenario(cz, cb int, distinct bool) *Scenario {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(true)
	sc.Knowledge = CaseStudyKnowledge()
	sc.TargetStates = []int{9, 10}
	sc.MaxAlteredMeasurements = cz
	sc.MaxCompromisedBuses = cb
	if distinct {
		sc.DistinctPairs = [][2]int{{9, 10}}
	}
	return sc
}

// TestObjective1Distinct reproduces the paper's Objective 1: with distinct
// change amounts the attack is feasible within 16 measurements / 7 buses
// and infeasible with only 6 buses.
func TestObjective1Distinct(t *testing.T) {
	res := verify(t, objective1Scenario(16, 7, true))
	if !res.Feasible {
		t.Fatalf("16 meas / 7 buses / distinct infeasible, paper says feasible")
	}
	if len(res.AlteredMeasurements) > 16 || len(res.CompromisedBuses) > 7 {
		t.Fatalf("attack vector exceeds limits: %d meas, %d buses",
			len(res.AlteredMeasurements), len(res.CompromisedBuses))
	}
	if verify(t, objective1Scenario(16, 6, true)).Feasible {
		t.Fatalf("distinct attack feasible within 6 buses, paper says unsat")
	}
}

// forceVector constrains a model to alter exactly the given measurement set
// by pinning every cz variable, then checks satisfiability. SAT means the
// vector is an admissible attack under the scenario's constraints.
func vectorAdmissible(t *testing.T, sc *Scenario, measSet []int) bool {
	t.Helper()
	m, err := NewModel(sc)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	in := make(map[int]bool, len(measSet))
	for _, id := range measSet {
		in[id] = true
	}
	sys := sc.System()
	for id := 1; id <= sys.NumMeasurements(); id++ {
		f := m.czFormula(id)
		if in[id] {
			m.Solver().Assert(f)
		} else {
			m.Solver().Assert(smt.Not(f))
		}
	}
	res, err := m.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res.Feasible
}

// TestObjective1PaperVectorsAdmissible verifies that both attack vectors
// printed in the paper for Objective 1 are models of our constraint system.
// (SAT models are not unique — our solver finds a cheaper 9-measurement
// equal-amounts attack through the untaken line-10 measurements — so
// admissibility, not equality, is the faithful check. See EXPERIMENTS.md.)
func TestObjective1PaperVectorsAdmissible(t *testing.T) {
	distinctVector := []int{8, 9, 16, 18, 20, 28, 29, 36, 38, 40, 44, 47, 50, 51, 53, 54}
	if !vectorAdmissible(t, objective1Scenario(16, 7, true), distinctVector) {
		t.Fatalf("paper's distinct-amounts vector not admissible")
	}
	equalVector := []int{8, 9, 11, 13, 28, 29, 31, 33, 39, 44, 46, 47, 49, 51, 53}
	if !vectorAdmissible(t, objective1Scenario(15, 6, false), equalVector) {
		t.Fatalf("paper's equal-amounts vector not admissible")
	}
	// Sanity: a mutilated vector (one boundary measurement dropped) is not.
	broken := append([]int(nil), equalVector[1:]...)
	if vectorAdmissible(t, objective1Scenario(15, 6, false), broken) {
		t.Fatalf("mutilated vector admissible; consistency constraints too weak")
	}
}

// TestObjective1EqualWithinLimits checks feasibility at the paper's
// equal-amounts resource limits and that the returned vector respects them.
func TestObjective1EqualWithinLimits(t *testing.T) {
	res := verify(t, objective1Scenario(15, 6, false))
	if !res.Feasible {
		t.Fatalf("equal-amounts attack infeasible at 15 meas / 6 buses")
	}
	if len(res.AlteredMeasurements) > 15 || len(res.CompromisedBuses) > 6 {
		t.Fatalf("vector exceeds limits: %v / %v", res.AlteredMeasurements, res.CompromisedBuses)
	}
}

// TestStates9And10CannotBeAttackedAlone: the paper notes "only states 9 and
// 10 cannot be attacked alone"; measurement 15 (line 7→9 flow) is secured
// per Table III and must change for any θ9-only perturbation.
func TestStates9And10CannotBeAttackedAlone(t *testing.T) {
	sc := objective1Scenario(0, 0, true)
	sc.OnlyTargets = true
	if res := verify(t, sc); res.Feasible {
		t.Fatalf("states 9,10 attacked alone; paper says other states must also change")
	}
}

func TestFullKnowledgeUnlimitedAlwaysFeasible(t *testing.T) {
	// With full access, knowledge and no limits, any single non-reference
	// state can be attacked (possibly dragging neighbors), and so can "any
	// state" (the Table IV model-size scenario).
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys, err := grid.Case(name)
		if err != nil {
			t.Fatalf("Case: %v", err)
		}
		target := NewScenario(sys)
		target.TargetStates = []int{sys.Buses / 2}
		anyState := NewScenario(sys)
		anyState.AnyState = true
		for _, sc := range []*Scenario{target, anyState} {
			res := verify(t, sc)
			if !res.Feasible {
				t.Fatalf("%s (any state %v): unconstrained attack infeasible", name, sc.AnyState)
			}
			if len(res.AlteredMeasurements) == 0 {
				t.Fatalf("%s (any state %v): feasible attack with empty vector", name, sc.AnyState)
			}
		}
	}
}

func TestSecuringEverythingBlocksAllAttacks(t *testing.T) {
	sys := grid.IEEE14()
	sc := NewScenario(sys)
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if err := sc.Meas.Secure(id); err != nil {
			t.Fatalf("Secure: %v", err)
		}
	}
	sc.AnyState = true
	if res := verify(t, sc); res.Feasible {
		t.Fatalf("attack feasible with every measurement secured")
	}
}

func TestInaccessibleEqualsSecured(t *testing.T) {
	sys := grid.IEEE14()
	base := NewScenario(sys)
	base.TargetStates = []int{12}
	base.OnlyTargets = true
	base.Meas = CaseStudyMeasurements(false)
	if err := base.Meas.Restrict(46); err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if res := verify(t, base); res.Feasible {
		t.Fatalf("attack feasible with measurement 46 inaccessible")
	}
}

func TestKnowledgeConstraint(t *testing.T) {
	// Attacking state 12 alone needs line 12's and line 19's admittances
	// (flows on both incident lines must be recomputed).
	for _, unknown := range []int{12, 19} {
		sc := NewScenario(grid.IEEE14())
		sc.Meas = CaseStudyMeasurements(false)
		sc.TargetStates = []int{12}
		sc.OnlyTargets = true
		kn := make([]bool, 21)
		for i := 1; i <= 20; i++ {
			kn[i] = i != unknown
		}
		sc.Knowledge = kn
		if res := verify(t, sc); res.Feasible {
			t.Fatalf("attack on state 12 feasible without admittance of line %d", unknown)
		}
	}
}

func TestKnowledgeIrrelevantLineDoesNotBlock(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	kn := make([]bool, 21)
	for i := 1; i <= 20; i++ {
		kn[i] = i != 1 // line 1 (1→2) is far from bus 12
	}
	sc.Knowledge = kn
	if res := verify(t, sc); !res.Feasible {
		t.Fatalf("unknown admittance of an unrelated line blocked the attack")
	}
}

func TestStrictKnowledgeTighter(t *testing.T) {
	// Under paper semantics (Eq. 17 only) an unknown line whose both flow
	// measurements are untaken doesn't constrain the attack; under strict
	// knowledge the relative state change across it must vanish.
	build := func(strict bool) *Scenario {
		sc := NewScenario(grid.IEEE14())
		// Untake both flow measurements of line 19 (12↔13) but keep bus
		// injections: paper semantics allows Δθ12 ≠ Δθ13 without knowing
		// line 19 (the needed bus adjustments are "computable" in the
		// model even though they depend on the unknown admittance).
		if err := sc.Meas.Untake(19, 39); err != nil {
			t.Fatalf("Untake: %v", err)
		}
		kn := make([]bool, 21)
		for i := 1; i <= 20; i++ {
			kn[i] = i != 19
		}
		sc.Knowledge = kn
		sc.TargetStates = []int{12}
		sc.OnlyTargets = true
		sc.StrictKnowledge = strict
		return sc
	}
	if res := verify(t, build(false)); !res.Feasible {
		t.Fatalf("paper-semantics attack infeasible")
	}
	if res := verify(t, build(true)); res.Feasible {
		t.Fatalf("strict-knowledge attack feasible; extension should block it")
	}
}

func TestResourceMonotonicity(t *testing.T) {
	// Feasibility is monotone in both resource limits.
	feasible := func(cz, cb int) bool {
		sc := NewScenario(grid.IEEE14())
		sc.Meas = CaseStudyMeasurements(false)
		sc.TargetStates = []int{9, 10}
		sc.DistinctPairs = [][2]int{{9, 10}}
		sc.MaxAlteredMeasurements = cz
		sc.MaxCompromisedBuses = cb
		return verify(t, sc).Feasible
	}
	prev := false
	for cz := 10; cz <= 18; cz += 2 {
		cur := feasible(cz, 0)
		if prev && !cur {
			t.Fatalf("feasibility not monotone in T_CZ at %d", cz)
		}
		prev = prev || cur
	}
	if !prev {
		t.Fatalf("attack infeasible even with 18 measurements")
	}
}

func TestAnyStateGoal(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.AnyState = true
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatalf("AnyState attack infeasible on unprotected grid")
	}
	if len(res.StateChanges) == 0 {
		t.Fatalf("AnyState attack corrupted no state")
	}
}

func TestUntouchedStates(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.TargetStates = []int{12}
	sc.UntouchedStates = []int{13}
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatalf("attack infeasible")
	}
	if _, ok := res.StateChanges[13]; ok {
		t.Fatalf("untouched state 13 changed")
	}
}

func TestResultStateChangeFloat(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.TargetStates = []int{12}
	res := verify(t, sc)
	if !res.Feasible {
		t.Fatalf("infeasible")
	}
	if res.StateChangeFloat(12) == 0 {
		t.Fatalf("target state change reads as 0")
	}
	if res.StateChangeFloat(1) != 0 {
		t.Fatalf("reference bus change nonzero")
	}
}

func TestScenarioValidation(t *testing.T) {
	sys := grid.IEEE14()
	tests := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"nil meas", func(sc *Scenario) { sc.Meas = nil }},
		{"bad knowledge len", func(sc *Scenario) { sc.Knowledge = make([]bool, 3) }},
		{"bad ref", func(sc *Scenario) { sc.RefBus = 0 }},
		{"target out of range", func(sc *Scenario) { sc.TargetStates = []int{99} }},
		{"target is ref", func(sc *Scenario) { sc.TargetStates = []int{1} }},
		{"untouched out of range", func(sc *Scenario) { sc.UntouchedStates = []int{99} }},
		{"distinct out of range", func(sc *Scenario) { sc.DistinctPairs = [][2]int{{1, 99}} }},
		{"anystate+targets", func(sc *Scenario) {
			sc.AnyState = true
			sc.TargetStates = []int{5}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScenario(sys)
			tc.mut(sc)
			if _, err := Verify(sc); err == nil {
				t.Fatalf("invalid scenario accepted")
			}
		})
	}
}

func TestAssertBusesSecuredPushPop(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	m, err := NewModel(sc)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	res, err := m.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Feasible {
		t.Fatalf("base attack infeasible")
	}
	m.Push()
	if err := m.AssertBusesSecured([]int{6}); err != nil {
		t.Fatalf("AssertBusesSecured: %v", err)
	}
	res, err = m.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Feasible {
		t.Fatalf("attack feasible with bus 6 secured (measurement 46 covered)")
	}
	if err := m.Pop(); err != nil {
		t.Fatalf("Pop: %v", err)
	}
	res, err = m.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Feasible {
		t.Fatalf("attack infeasible after Pop")
	}
	if err := m.AssertBusesSecured([]int{99}); err == nil {
		t.Fatalf("out-of-range bus accepted")
	}
}

func TestInclusionAttack(t *testing.T) {
	// Line 13 (6→13) is out of service in the true topology and the
	// injection at bus 13 (measurement 53) is secured. Attacking state 13
	// alone then requires altering measurement 53 — impossible — unless the
	// attacker includes line 13: the fabricated flow absorbs bus 13's
	// consumption delta (the measurement-53 change cancels) at the price of
	// altering line 13's flow measurements and bus 6's injection.
	build := func(allowInclusion, secureStatus bool) *Scenario {
		sc := NewScenario(grid.IEEE14())
		sc.Meas = CaseStudyMeasurements(false)
		if err := sc.Meas.Secure(53); err != nil {
			t.Fatalf("Secure: %v", err)
		}
		inService := make([]bool, 21)
		for i := 1; i <= 20; i++ {
			inService[i] = i != 13
		}
		sc.InService = inService
		if secureStatus {
			st := make([]bool, 21)
			st[13] = true
			sc.SecuredStatus = st
		}
		sc.AllowInclusion = allowInclusion
		sc.TargetStates = []int{13}
		sc.OnlyTargets = true
		return sc
	}
	if res := verify(t, build(false, false)); res.Feasible {
		t.Fatalf("attack feasible without inclusion despite secured measurement 53")
	}
	res := verify(t, build(true, false))
	if !res.Feasible {
		t.Fatalf("inclusion attack infeasible")
	}
	if !reflect.DeepEqual(res.IncludedLines, []int{13}) {
		t.Fatalf("included = %v, want [13]", res.IncludedLines)
	}
	has := func(id int) bool {
		for _, x := range res.AlteredMeasurements {
			if x == id {
				return true
			}
		}
		return false
	}
	if !has(13) || !has(33) {
		t.Fatalf("included line's flow measurements not altered: %v", res.AlteredMeasurements)
	}
	if has(53) {
		t.Fatalf("secured measurement 53 altered: %v", res.AlteredMeasurements)
	}
	if res2 := verify(t, build(true, true)); res2.Feasible {
		t.Fatalf("inclusion attack feasible with secured line status")
	}
}

func TestExclusionRequiresUnfixedLine(t *testing.T) {
	sc := NewScenario(grid.IEEE14())
	sc.Meas = CaseStudyMeasurements(false)
	if err := sc.Meas.Secure(46); err != nil {
		t.Fatalf("Secure: %v", err)
	}
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	sc.AllowExclusion = true
	// All lines fixed: exclusion impossible anywhere, so the secured
	// measurement blocks the attack as in Objective 2.
	fixed := make([]bool, 21)
	for i := 1; i <= 20; i++ {
		fixed[i] = true
	}
	sc.FixedLines = fixed
	if res := verify(t, sc); res.Feasible {
		t.Fatalf("exclusion attack feasible with all lines fixed")
	}
}
