package core

import (
	"math/rand"
	"slices"
	"testing"

	"segrid/internal/grid"
)

// TestOverlayMatchesWith is the overlay's differential suite: seeded random
// overlays (secured buses, secured measurements, tightened T_CZ and T_CB)
// asserted in a scope on one warm encoder per scenario. Each verdict must
// equal a cold Verify of sc.With(ov), every feasible attack of either path
// must pass the exact evaluator on sc.With(ov), and every earlier attack
// that ov.Admits refuses must be refused by the evaluator too: the
// pre-test only filters.
func TestOverlayMatchesWith(t *testing.T) {
	ieee14 := NewScenario(grid.IEEE14())
	ieee14.AnyState = true
	ieee14.MaxAlteredMeasurements, ieee14.MaxCompromisedBuses = 12, 4
	ieee30 := NewScenario(grid.IEEE30())
	ieee30.TargetStates = []int{16}
	ieee30.MaxAlteredMeasurements, ieee30.MaxCompromisedBuses = 28, 7

	for ci, sc := range []*Scenario{ieee14, ieee30} {
		sys := sc.System()
		t.Run(sys.Name, func(t *testing.T) {
			m, err := NewModel(sc)
			if err != nil {
				t.Fatal(err)
			}
			secured := slices.Clone(sc.Meas.Secured)
			rng := rand.New(rand.NewSource(int64(2014 + ci)))
			var seen []*Result
			verdicts := map[bool]int{}
			refused := 0
			for i := 0; i < 24; i++ {
				var ov Overlay
				if rng.Intn(4) == 0 {
					ov.SecuredBuses = []int{1 + rng.Intn(sys.Buses)}
				}
				for k := rng.Intn(4); k > 0; k-- {
					ov.SecuredMeasurements = append(ov.SecuredMeasurements, 1+rng.Intn(sys.NumMeasurements()))
				}
				if rng.Intn(6) == 0 {
					ov.MaxAltered = 1 + rng.Intn(sc.MaxAlteredMeasurements-1)
				}
				if rng.Intn(8) == 0 {
					ov.MaxBuses = 1 + rng.Intn(sc.MaxCompromisedBuses-1)
				}
				eff, err := sc.With(ov)
				if err != nil {
					t.Fatalf("overlay %d %+v: With: %v", i, ov, err)
				}
				m.Push()
				if err := m.Assert(ov); err != nil {
					t.Fatalf("overlay %d %+v: Assert: %v", i, ov, err)
				}
				warm, err := m.Check()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Pop(); err != nil {
					t.Fatal(err)
				}
				cold, err := Verify(eff)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Inconclusive || cold.Inconclusive || warm.Feasible != cold.Feasible {
					t.Fatalf("overlay %d %+v: Assert says feasible=%v, Verify(With) says feasible=%v", i, ov, warm.Feasible, cold.Feasible)
				}
				for _, r := range []*Result{warm, cold} {
					if !r.Feasible {
						continue
					}
					if _, err := ExactMeasurementDeltas(eff, r); err != nil {
						t.Fatalf("overlay %d %+v: attack fails the evaluator on With: %v", i, ov, err)
					}
				}
				for _, w := range seen {
					if ov.Admits(w) {
						continue
					}
					refused++
					if _, err := ExactMeasurementDeltas(eff, w); err == nil {
						t.Fatalf("overlay %d %+v: Admits refuses an attack the evaluator accepts: %+v", i, ov, w)
					}
				}
				if warm.Feasible {
					seen = append(seen, warm)
				}
				verdicts[warm.Feasible]++
			}
			if verdicts[true] == 0 || verdicts[false] == 0 || refused == 0 {
				t.Fatalf("verdicts %v, %d pre-test refusals: the stream must exercise both answers and the pre-test", verdicts, refused)
			}
			if !slices.Equal(sc.Meas.Secured, secured) {
				t.Fatal("With changed the base scenario's measurement configuration")
			}
		})
	}
}

// TestOverlayValidate checks the range rules the service's planner applies
// to every sweep item.
func TestOverlayValidate(t *testing.T) {
	sys := grid.IEEE14()
	n := sys.NumMeasurements()
	tests := []struct {
		name string
		ov   Overlay
		ok   bool
	}{
		{"empty", Overlay{}, true},
		{"in range", Overlay{SecuredBuses: []int{1, 14}, SecuredMeasurements: []int{1, n}, MaxAltered: 3, MaxBuses: 2}, true},
		{"bus zero", Overlay{SecuredBuses: []int{0}}, false},
		{"bus past the last", Overlay{SecuredBuses: []int{3, 15}}, false},
		{"measurement zero", Overlay{SecuredMeasurements: []int{0}}, false},
		{"measurement past the last", Overlay{SecuredMeasurements: []int{n + 1}}, false},
		{"negative T_CZ", Overlay{MaxAltered: -1}, false},
		{"negative T_CB", Overlay{MaxBuses: -1}, false},
	}
	for _, tc := range tests {
		if err := tc.ov.Validate(sys); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
