package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"segrid/internal/scenariofile"
)

// randomFamilyBase draws an ieee14 base spec: random untaken and secured
// measurements, sometimes exclusion attacks, bounds and MinChange, and a
// targeted or any-state goal.
func randomFamilyBase(rng *rand.Rand) scenariofile.AttackSpec {
	spec := scenariofile.AttackSpec{Case: "ieee14"}
	for id := 1; id <= 54; id++ {
		switch rng.Intn(10) {
		case 0:
			spec.Untaken = append(spec.Untaken, id)
		case 1, 2:
			spec.Secured = append(spec.Secured, id)
		}
	}
	if rng.Intn(3) == 0 {
		spec.AllowExclusion = true
		spec.NonCoreLines = []int{1 + rng.Intn(20), 1 + rng.Intn(20)}
	}
	if rng.Intn(2) == 0 {
		spec.MaxMeasurements = 2 + rng.Intn(10)
	}
	if rng.Intn(2) == 0 {
		spec.MaxBuses = 2 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		spec.AnyState = true
	} else {
		spec.Targets = []int{2 + rng.Intn(13)}
		spec.OnlyTargets = rng.Intn(2) == 0
	}
	if rng.Intn(5) == 0 {
		spec.MinChange = 0.05
	}
	return spec
}

// tightenedFamily pairs each of a few loose items with tightenings of it:
// one more secured measurement, T_CZ lowered by one, T_CB lowered by one.
// Bounds above the base's re-spec the item into its own group; bounds
// below it are scoped overlays.
func tightenedFamily(rng *rand.Rand, base scenariofile.AttackSpec) (items []SweepItem, pairs [][2]int) {
	ptr := func(v int) *int { return &v }
	looses := []SweepItem{
		{},
		{SecuredBuses: []int{1 + rng.Intn(14)}},
		{SecuredMeasurements: []int{1 + rng.Intn(54)}},
	}
	if base.MaxMeasurements > 0 {
		looses = append(looses, SweepItem{MaxAlteredMeasurements: ptr(base.MaxMeasurements + 2)})
	} else {
		looses = append(looses, SweepItem{MaxCompromisedBuses: ptr(3)})
	}
	for _, loose := range looses {
		tights := []SweepItem{loose}
		tights[0].SecuredMeasurements = append(append([]int(nil), loose.SecuredMeasurements...), 1+rng.Intn(54))
		if k := effectiveBound(loose.MaxAlteredMeasurements, base.MaxMeasurements); k >= 2 {
			tight := loose
			tight.MaxAlteredMeasurements = ptr(k - 1)
			tights = append(tights, tight)
		}
		if k := effectiveBound(loose.MaxCompromisedBuses, base.MaxBuses); k >= 2 {
			tight := loose
			tight.MaxCompromisedBuses = ptr(k - 1)
			tights = append(tights, tight)
		}
		li := len(items)
		items = append(items, loose)
		for _, tight := range tights {
			pairs = append(pairs, [2]int{li, len(items)})
			items = append(items, tight)
		}
	}
	return items, pairs
}

// effectiveBound is an item's resource bound after inheritance (0 means
// unbounded).
func effectiveBound(item *int, base int) int {
	if item != nil {
		return *item
	}
	return base
}

// TestSweepTighteningIsMonotone is a metamorphic property over the whole
// in-process sweep path — planning, scoped overlays, re-specced groups,
// the screen, and both lowerings: securing one more measurement or lowering
// T_CZ or T_CB by one only shrinks the attack's feasible set, so an item
// that is infeasible never has a feasible tightening. Each family runs with
// the screen on, off, and on again (screening is deterministic, so the
// second screened run must repeat the first); definitive verdicts of one
// item must agree across the three.
func TestSweepTighteningIsMonotone(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(1417))
	ctx := context.Background()
	checked := 0
	for round := 0; round < 30; round++ {
		base := randomFamilyBase(rng)
		items, pairs := tightenedFamily(rng, base)
		label := fmt.Sprintf("round %d base %+v", round, base)
		status := make([]string, len(items))
		for _, screenOn := range []bool{true, false, true} {
			resp, err := svc.Sweep(ctx, &SweepRequest{Attack: base, Items: items, Screen: &screenOn})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, it := range resp.Items {
				switch {
				case it.Status != "feasible" && it.Status != "infeasible":
					t.Fatalf("%s screen=%v: item %d %+v is %s without faults", label, screenOn, i, items[i], it.Status)
				case status[i] == "":
					status[i] = it.Status
				case status[i] != it.Status:
					t.Fatalf("%s: item %d %+v says %s with screen=%v, %s before", label, i, items[i], it.Status, screenOn, status[i])
				}
			}
			for _, p := range pairs {
				if resp.Items[p[0]].Status == "infeasible" && resp.Items[p[1]].Status == "feasible" {
					t.Fatalf("%s screen=%v: item %+v is infeasible but its tightening %+v is feasible",
						label, screenOn, items[p[0]], items[p[1]])
				}
			}
		}
		for _, p := range pairs {
			if status[p[0]] == "infeasible" {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no infeasible item had a tightening: the property was never exercised")
	}
	t.Logf("%d tightenings of infeasible items checked", checked)
}
