package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"segrid/internal/grid"
	"segrid/internal/proof"
	"segrid/internal/screen"
	"segrid/internal/smt"
)

// counterPin is the observable work of one verification: the verdict, the
// model size and the solver counters that fingerprint its search.
type counterPin struct {
	feasible                                     bool
	vars, clauses                                int
	conflicts, decisions, propagations, theories int64
	pivots                                       int64
}

func pinOf(r *Result) counterPin {
	st := r.Stats
	return counterPin{
		feasible: r.Feasible, vars: st.BoolVars, clauses: st.Clauses,
		conflicts: st.Conflicts, decisions: st.Decisions, propagations: st.Propagations,
		theories: st.TheoryChecks, pivots: st.Pivots,
	}
}

// fig4aScenario is the paper's Fig. 4(a) verification shape: one middle
// target state, at most a quarter of the measurements and of the buses.
func fig4aScenario(sys *grid.System) *Scenario {
	sc := NewScenario(sys)
	sc.TargetStates = []int{1 + sys.Buses/2}
	sc.MaxAlteredMeasurements = sys.NumMeasurements() / 4
	sc.MaxCompromisedBuses = sys.Buses / 4
	return sc
}

// TestVerifySearchPath pins the verification search (Eqs. 5–26) and the LP
// screen: verdicts and solver counters of cold Fig. 4(a) and any-state
// unsat checks, of a fixed overlay sequence on one warm encoder, and the
// verdicts, pivots and probes of a fixed screen set. Both searches are
// deterministic, so a refactor must reproduce every pin exactly; a change
// of search policy moves them and must update them with the reason.
func TestVerifySearchPath(t *testing.T) {
	anyState := func(sys *grid.System, maxAltered, maxBuses int) *Scenario {
		sc := NewScenario(sys)
		sc.AnyState = true
		sc.MaxAlteredMeasurements = maxAltered
		sc.MaxCompromisedBuses = maxBuses
		return sc
	}
	ieee57, err := grid.Case("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	ieee118, err := grid.Case("ieee118")
	if err != nil {
		t.Fatal(err)
	}

	// Cold checks. Every infeasible row runs with a certificate stream,
	// which must survive trimming and re-check as one unsat answer.
	cold := []struct {
		name string
		sc   *Scenario
		want counterPin
	}{
		{"fig4a/ieee14", fig4aScenario(grid.IEEE14()), counterPin{true, 979, 1895, 4, 90, 2476, 96, 7}},
		{"fig4a/ieee30", fig4aScenario(grid.IEEE30()), counterPin{true, 3844, 7535, 7, 171, 10461, 180, 14}},
		{"fig4a/ieee57", fig4aScenario(ieee57), counterPin{true, 13489, 26655, 23, 2194, 158351, 2219, 65}},
		{"fig4a/ieee118", fig4aScenario(ieee118), counterPin{true, 65338, 129989, 8, 792, 159663, 802, 119}},
		{"unsat/ieee14", anyState(grid.IEEE14(), 2, 1), counterPin{false, 370, 730, 55, 254, 4439, 278, 3}},
		{"unsat/ieee30", anyState(grid.IEEE30(), 3, 1), counterPin{false, 895, 1762, 137, 1133, 25004, 1189, 3}},
		{"unsat/ieee57", anyState(ieee57, 3, 1), counterPin{false, 1745, 3424, 228, 3922, 67038, 4031, 1}},
		{"unsat/ieee118", anyState(ieee118, 4, 2), counterPin{false, 4477, 8848, 1308, 18362, 1063131, 18922, 372}},
	}
	for _, tc := range cold {
		var cert bytes.Buffer
		var pw *proof.Writer
		if !tc.want.feasible {
			pw = proof.NewWriter(&cert)
			opts := smt.DefaultOptions()
			opts.Proof = pw
			tc.sc.Options = &opts
		}
		res, err := Verify(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pinOf(res); res.Inconclusive || got != tc.want {
			t.Errorf("%s: %+v (inconclusive %v), want %+v", tc.name, got, res.Inconclusive, tc.want)
		}
		if pw == nil {
			continue
		}
		if err := pw.Close(); err != nil {
			t.Fatalf("%s: close certificate: %v", tc.name, err)
		}
		recs, err := proof.ReadAll(&cert)
		if err != nil {
			t.Fatalf("%s: read certificate: %v", tc.name, err)
		}
		kept, _, err := proof.Trim(recs)
		if err != nil {
			t.Fatalf("%s: trim certificate: %v", tc.name, err)
		}
		var trimmed bytes.Buffer
		if err := proof.WriteAll(&trimmed, kept); err != nil {
			t.Fatalf("%s: write trimmed certificate: %v", tc.name, err)
		}
		rep, err := proof.Check(&trimmed)
		if err != nil || rep.UnsatChecks != 1 {
			t.Errorf("%s: trimmed certificate: %v, %v; want one certified unsat check", tc.name, rep, err)
		}
	}

	// One warm ieee30 Fig. 4(a) encoder (target state 16) answers each
	// overlay under Push/Pop. The scoped bound's cardinality circuit stays
	// in the instance after its Pop, so the overlays after it search a
	// larger model.
	m, err := NewModel(fig4aScenario(grid.IEEE30()))
	if err != nil {
		t.Fatal(err)
	}
	overlays := []Overlay{
		{},
		{SecuredMeasurements: []int{1}},
		{SecuredMeasurements: []int{17, 58}},
		{SecuredBuses: []int{12, 16, 17}},
		{SecuredBuses: []int{16}},
		{SecuredMeasurements: []int{3, 40, 77}},
		{MaxAltered: 4},
		{SecuredMeasurements: []int{20}},
		{SecuredBuses: []int{12, 16, 17}, SecuredMeasurements: []int{5}},
		{SecuredMeasurements: []int{101}},
	}
	var verdicts strings.Builder
	var sum counterPin
	for i, ov := range overlays {
		m.Push()
		if err := m.Assert(ov); err != nil {
			t.Fatal(err)
		}
		res, err := m.Check()
		if err != nil {
			t.Fatalf("overlay %d: %v", i, err)
		}
		if err := m.Pop(); err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Inconclusive:
			t.Fatalf("overlay %d inconclusive: %v", i, res.Why)
		case res.Feasible:
			verdicts.WriteByte('f')
		default:
			verdicts.WriteByte('i')
		}
		p := pinOf(res)
		sum.vars, sum.clauses = p.vars, p.clauses
		sum.conflicts += p.conflicts
		sum.decisions += p.decisions
		sum.propagations += p.propagations
		sum.theories += p.theories
		sum.pivots += p.pivots
	}
	if got, want := verdicts.String(), "ffffffifff"; got != want {
		t.Errorf("warm verdicts %s, want %s", got, want)
	}
	if want := (counterPin{false, 4297, 8566, 208, 17021, 183034, 17197, 180}); sum != want {
		t.Errorf("warm counters %+v, want %+v (vars and clauses after the last check, the rest summed)", sum, want)
	}

	// The screen set. Only the fig4a/ieee14 item runs to the 512-pivot
	// cap: a capped screen costs more than all the other items together.
	s14, s30 := grid.IEEE14(), grid.IEEE30()
	secureBuses := func(sc *Scenario, buses ...int) *Scenario {
		for _, j := range buses {
			if err := sc.Meas.Secure(sc.System().MeasAtBus(j)...); err != nil {
				t.Fatal(err)
			}
		}
		return sc
	}
	objective2 := func(secured ...int) *Scenario {
		sc := NewScenario(s14)
		sc.Meas = CaseStudyMeasurements(false)
		if err := sc.Meas.Secure(secured...); err != nil {
			t.Fatal(err)
		}
		sc.TargetStates = []int{12}
		sc.OnlyTargets = true
		return sc
	}
	target := func(sys *grid.System, bus int) *Scenario {
		sc := NewScenario(sys)
		sc.TargetStates = []int{bus}
		return sc
	}
	allBuses := func(sys *grid.System) []int {
		buses := make([]int, sys.Buses)
		for j := range buses {
			buses[j] = j + 1
		}
		return buses
	}
	screens := []struct {
		name    string
		sc      *Scenario
		verdict screen.Verdict
		pivots  int64
		probes  int
	}{
		{"ieee14-any", anyState(s14, 0, 0), screen.FeasibleIntegral, 0, 1},
		{"ieee14-any-cz8", anyState(s14, 8, 0), screen.FeasibleIntegral, 272, 1},
		{"ieee14-any-b1368", secureBuses(anyState(s14, 0, 0), 1, 3, 6, 8), screen.FeasibleIntegral, 10, 11},
		{"ieee14-any-b13689", secureBuses(anyState(s14, 0, 0), 1, 3, 6, 8, 9), screen.Infeasible, 17, 26},
		{"objective2", objective2(), screen.FeasibleIntegral, 0, 1},
		{"objective2-m46", objective2(46), screen.Infeasible, 0, 2},
		{"ieee30-t16-b12,16,17", secureBuses(target(s30, 16), 12, 16, 17), screen.FeasibleIntegral, 7, 1},
		{"ieee30-any-all", secureBuses(anyState(s30, 0, 0), allBuses(s30)...), screen.Infeasible, 28, 58},
		{"fig4a/ieee14", fig4aScenario(s14), screen.Inconclusive, screen.DefaultMaxPivots, 1},
	}
	for _, tc := range screens {
		res, err := ScreenScenario(context.Background(), tc.sc, screen.Options{MaxPivots: screen.DefaultMaxPivots})
		if err != nil {
			t.Fatalf("screen %s: %v", tc.name, err)
		}
		if res.Verdict != tc.verdict || res.Stats.Pivots != tc.pivots || res.Stats.Probes != tc.probes {
			t.Errorf("screen %s: %v with %d pivots, %d probes; want %v with %d pivots, %d probes",
				tc.name, res.Verdict, res.Stats.Pivots, res.Stats.Probes, tc.verdict, tc.pivots, tc.probes)
		}
	}
}
