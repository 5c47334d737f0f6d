package service

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/scenariofile"
)

// fig4aOverlayStream is verify-warm's traffic on one encoder: the paper's
// Fig. 4(a) shape on ieee30 with target state 5 (limits of a quarter of the
// measurements and buses), cycled 3 times through 16 overlays securing 1–3
// measurements, drawn as segridbench's verifyCatalogue draws that shape's
// catalogue. Each cycle also carries two infeasible overlays, which secure
// bus 5 and its neighbours 2 and 7, and one feasible overlay that secures
// bus 5 alone on top of a catalogue entry.
func fig4aOverlayStream(t *testing.T) (scenariofile.AttackSpec, [][2][]int) {
	t.Helper()
	sys, err := grid.Case("ieee30")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenariofile.AttackSpec{
		Case:            "ieee30",
		Targets:         []int{5},
		MaxMeasurements: sys.NumMeasurements() / 4,
		MaxBuses:        sys.Buses / 4,
	}
	rng := rand.New(rand.NewSource(20160518))
	seen := map[string]bool{}
	var catalogue [][]int
	for len(catalogue) < 16 {
		k := 1 + rng.Intn(3)
		perm := rng.Perm(sys.NumMeasurements())[:k]
		secured := make([]int, k)
		for i, j := range perm {
			secured[i] = j + 1
		}
		slices.Sort(secured)
		if key := fmt.Sprint(secured); !seen[key] {
			seen[key] = true
			catalogue = append(catalogue, secured)
		}
	}
	shut := []int{2, 5, 7}
	var stream [][2][]int // {secured buses, secured measurements}
	for cycle := 0; cycle < 3; cycle++ {
		for i, meas := range catalogue {
			stream = append(stream, [2][]int{nil, meas})
			switch i {
			case 4:
				stream = append(stream, [2][]int{shut, nil})
			case 9:
				stream = append(stream, [2][]int{shut, catalogue[cycle]})
			case 14:
				stream = append(stream, [2][]int{{5}, meas})
			}
		}
	}
	return spec, stream
}

// TestVerifyWarmOverlayStreamPins pins what one pooled ieee30 Fig. 4(a)
// encoder answers to a fixed overlay stream through in-process
// Service.Verify: every verdict, how many overlays the encoder's recent
// attacks answered, and how many sequential SMT solves the stream cost. The
// search is deterministic, so a change that moves a pin changed what the
// warm path does; it must update the pins and say why.
func TestVerifyWarmOverlayStreamPins(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	spec, stream := fig4aOverlayStream(t)
	ctx := context.Background()
	if r, err := svc.Verify(ctx, &VerifyRequest{Attack: spec}); err != nil || r.Status != "feasible" {
		t.Fatalf("cold verify = %+v, %v", r, err)
	}
	before := metricsOn(t, srv)
	var verdicts strings.Builder
	for i, ov := range stream {
		r, err := svc.Verify(ctx, &VerifyRequest{Attack: spec, SecuredBuses: ov[0], SecuredMeasurements: ov[1]})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Warm {
			t.Fatalf("overlay %d answered cold: %+v", i, r)
		}
		verdicts.WriteByte(r.Status[0])
	}
	after := metricsOn(t, srv)

	// One cycle: f for feasible, i for infeasible (the two bus 2, 5, 7
	// overlays).
	const cycle = "fffffifffffifffffff"
	const wantVerdicts = cycle + cycle + cycle
	if got := verdicts.String(); got != wantVerdicts {
		t.Errorf("verdicts\n got %s\nwant %s", got, wantVerdicts)
	}
	// Every overlay reaches the leased encoder and first tries its recent
	// attacks. 47 of the 57 are answered from them; the solver runs for the
	// other 10: the six infeasible overlays and four feasible ones no
	// remembered attack survives.
	const wantReuses, wantSolves = 47, 10
	if got := after.WitnessReuses - before.WitnessReuses; got != wantReuses {
		t.Errorf("witnessReuses delta = %d, want %d", got, wantReuses)
	}
	if got := after.WitnessReuseMisses - before.WitnessReuseMisses; got != wantSolves {
		t.Errorf("witnessReuseMisses delta = %d, want %d", got, wantSolves)
	}
	if got := after.SequentialSolves - before.SequentialSolves; got != wantSolves {
		t.Errorf("sequentialSolves delta = %d, want %d", got, wantSolves)
	}
	if after.FeasibleReplayRejects != 0 {
		t.Errorf("feasibleReplayRejects = %d, want 0", after.FeasibleReplayRejects)
	}
	if after.Retries != before.Retries || after.Poisoned != before.Poisoned {
		t.Errorf("retries %d → %d, poisoned %d → %d: the stream must run clean",
			before.Retries, after.Retries, before.Poisoned, after.Poisoned)
	}
}

// witnessOf rebuilds the attack a feasible response publishes, so the
// exact evaluator can check what a client actually received. The specs
// it is used on allow no topology attacks, so the response carries every
// field of the attack.
func witnessOf(t *testing.T, r *VerifyResponse) *core.Result {
	t.Helper()
	w := &core.Result{
		Feasible:            true,
		AlteredMeasurements: r.AlteredMeasurements,
		CompromisedBuses:    r.CompromisedBuses,
		StateChanges:        map[int]*big.Rat{},
	}
	for bus, v := range r.StateChanges {
		j, err := strconv.Atoi(bus)
		d, ok := new(big.Rat).SetString(v)
		if err != nil || !ok {
			t.Fatalf("malformed state change %q: %q", bus, v)
		}
		w.StateChanges[j] = d
	}
	return w
}

// foldedScenario is spec with item's protections and bounds written into
// the scenario itself: the one-shot instance core.Verify answers.
func foldedScenario(t *testing.T, spec scenariofile.AttackSpec, item SweepItem) *core.Scenario {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range item.SecuredBuses {
		if err := sc.Meas.SecureBus(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Meas.Secure(item.SecuredMeasurements...); err != nil {
		t.Fatal(err)
	}
	if item.MaxAlteredMeasurements != nil {
		sc.MaxAlteredMeasurements = *item.MaxAlteredMeasurements
	}
	if item.MaxCompromisedBuses != nil {
		sc.MaxCompromisedBuses = *item.MaxCompromisedBuses
	}
	return sc
}

// TestSweepWitnessReuseMatchesCoreVerify is the differential suite for
// witness reuse: random overlay streams (secured buses, secured
// measurements, tightened T_CZ and T_CB, feasible and infeasible) on one
// warm encoder per base spec. Every answer must equal core.Verify on the
// scenario with the overlay folded in, every published attack must pass
// the exact evaluator on that scenario, and reuse must actually fire.
func TestSweepWitnessReuseMatchesCoreVerify(t *testing.T) {
	cases := []scenariofile.AttackSpec{
		{Case: "ieee14", AnyState: true, MaxMeasurements: 12, MaxBuses: 4},
		{Case: "ieee30", Targets: []int{16}, MaxMeasurements: 28, MaxBuses: 7},
	}
	for ci, spec := range cases {
		t.Run(spec.Case, func(t *testing.T) {
			svc, srv := newTestServer(t, Config{})
			sys, err := grid.Case(spec.Case)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(2014 + ci)))
			verdicts := map[string]int{}
			reused := 0
			for i := 0; i < 64; i++ {
				var item SweepItem
				if rng.Intn(4) == 0 {
					item.SecuredBuses = []int{1 + rng.Intn(sys.Buses)}
				}
				for k := rng.Intn(4); k > 0; k-- {
					item.SecuredMeasurements = append(item.SecuredMeasurements, 1+rng.Intn(sys.NumMeasurements()))
				}
				if rng.Intn(6) == 0 {
					v := 1 + rng.Intn(spec.MaxMeasurements-1)
					item.MaxAlteredMeasurements = &v
				}
				if rng.Intn(8) == 0 {
					v := 1 + rng.Intn(spec.MaxBuses-1)
					item.MaxCompromisedBuses = &v
				}
				out, err := svc.Sweep(context.Background(), &SweepRequest{Attack: spec, Items: []SweepItem{item}})
				if err != nil {
					t.Fatal(err)
				}
				got := out.Items[0]
				sc := foldedScenario(t, spec, item)
				ref, err := core.Verify(sc)
				if err != nil || ref.Inconclusive {
					t.Fatalf("item %d: reference verify = %+v, %v", i, ref, err)
				}
				want := "infeasible"
				if ref.Feasible {
					want = "feasible"
				}
				if got.Status != want {
					t.Fatalf("item %d %+v: service says %s (reused %v), core.Verify says %s", i, item, got.Status, got.Reused, want)
				}
				if got.Status == "feasible" {
					if _, err := core.ExactMeasurementDeltas(sc, witnessOf(t, got)); err != nil {
						t.Fatalf("item %d %+v: published attack (reused %v) fails the evaluator: %v", i, item, got.Reused, err)
					}
				}
				if got.Reused {
					if got.Status != "feasible" || !got.Warm {
						t.Fatalf("item %d: reused answer %+v, want a warm feasible one", i, got)
					}
					reused++
				}
				verdicts[want]++
			}
			m := metricsOn(t, srv)
			if reused == 0 || m.WitnessReuses != uint64(reused) {
				t.Fatalf("reused answers %d, witnessReuses %d: want equal and > 0", reused, m.WitnessReuses)
			}
			if m.WitnessReuses+m.WitnessReuseMisses != 64 || m.FeasibleReplayRejects != 0 {
				t.Fatalf("metrics %+v: want 64 ring lookups and no replay rejects", m)
			}
			if verdicts["feasible"] == 0 || verdicts["infeasible"] == 0 {
				t.Fatalf("verdicts %v: the stream must exercise both answers", verdicts)
			}
		})
	}
}

// leaseWarm checks out the pooled encoder of spec (it must be warm), lets
// edit change it and returns it to the pool.
func leaseWarm(t *testing.T, svc *Service, spec scenariofile.AttackSpec, edit func(*warmModel)) {
	t.Helper()
	key, err := poolKey(&spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.pool.Checkout(context.Background(), key)
	if err != nil || !lease.Warm() {
		t.Fatalf("checkout = %v, %v; want the warm encoder", lease, err)
	}
	edit(lease.Item)
	if err := lease.Return(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsTamperedWitness puts a tampered attack in a warm
// encoder's ring. The evaluator must refuse it, and the request must fall
// through to the solver and still get the right verdict.
func TestVerifyRejectsTamperedWitness(t *testing.T) {
	tampers := map[string]func(w core.Result) *core.Result{
		"drop an altered measurement": func(w core.Result) *core.Result {
			w.AlteredMeasurements = w.AlteredMeasurements[1:]
			return &w
		},
		"zero the target's state change": func(w core.Result) *core.Result {
			w.StateChanges = maps.Clone(w.StateChanges)
			delete(w.StateChanges, 12)
			return &w
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			svc, srv := newTestServer(t, Config{})
			ctx := context.Background()
			if r, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()}); err != nil || r.Status != "feasible" {
				t.Fatalf("cold verify = %+v, %v", r, err)
			}
			leaseWarm(t, svc, obj2Spec(), func(wm *warmModel) {
				if len(wm.witnesses) != 1 {
					t.Fatalf("ring holds %d attacks after one feasible check, want 1", len(wm.witnesses))
				}
				wm.witnesses[0] = newWitness(tamper(*wm.witnesses[0].res))
			})
			before := metricsOn(t, srv)
			r, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()})
			if err != nil || r.Status != "feasible" || r.Reused || !r.Warm {
				t.Fatalf("verify over a tampered ring = %+v, %v; want a warm solver answer", r, err)
			}
			after := metricsOn(t, srv)
			if after.WitnessReuses != before.WitnessReuses ||
				after.WitnessReuseMisses != before.WitnessReuseMisses+1 ||
				after.SequentialSolves != before.SequentialSolves+1 {
				t.Fatalf("metrics before %+v after %+v: want one miss and one solve", before, after)
			}
		})
	}
}

// TestVerifyFeasibleReplayRejectDiscardsEncoder makes a warm encoder's
// base scenario disagree with its encoding (a budget of one altered
// measurement the model never saw), so the solver's feasible attack fails
// the replay. The verdict must be inconclusive, the rejection counted and
// the encoder quarantined; the next request rebuilds and answers feasible.
func TestVerifyFeasibleReplayRejectDiscardsEncoder(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	ctx := context.Background()
	if r, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()}); err != nil || r.Status != "feasible" {
		t.Fatalf("cold verify = %+v, %v", r, err)
	}
	leaseWarm(t, svc, obj2Spec(), func(wm *warmModel) {
		wm.model.Scenario().MaxAlteredMeasurements = 1
		wm.witnesses = nil
	})
	r, err := svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()})
	if err != nil || r.Status != "inconclusive" || r.UnknownReason != "other" || !strings.Contains(r.Why, "exact evaluator") {
		t.Fatalf("verify with a refused attack = %+v, %v; want inconclusive from the evaluator", r, err)
	}
	m := metricsOn(t, srv)
	if m.FeasibleReplayRejects != 1 || m.Poisoned != 1 || m.Pool.Discards != 1 || m.Retries != 0 {
		t.Fatalf("metrics %+v: want one replay reject that discarded the encoder, no retry", m)
	}
	r, err = svc.Verify(ctx, &VerifyRequest{Attack: obj2Spec()})
	if err != nil || r.Status != "feasible" || r.Warm {
		t.Fatalf("verify after the discard = %+v, %v; want a cold feasible answer", r, err)
	}
	if m := metricsOn(t, srv); m.FeasibleReplayRejects != 1 {
		t.Fatalf("feasibleReplayRejects = %d after a rebuilt encoder, want 1", m.FeasibleReplayRejects)
	}
}

// TestVerifyReusedAnswerMatchesSolverAnswer checks the wire strings a ring
// entry renders once: every reused answer serializes exactly as the SMT
// answer that filled the ring (apart from warm, reused and elapsedMs), the
// published attack passes the exact evaluator, and editing a returned
// response's state changes or attack slices never changes the next reused
// answer.
func TestVerifyReusedAnswerMatchesSolverAnswer(t *testing.T) {
	svc, _ := newTestServer(t, Config{})
	ctx := context.Background()
	req := &VerifyRequest{Attack: obj2Spec()}
	wire := func(r *VerifyResponse) string {
		t.Helper()
		c := *r
		c.Warm, c.Reused, c.ElapsedMs = false, false, 0
		raw, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	vandalize := func(r *VerifyResponse) {
		for bus := range r.StateChanges {
			r.StateChanges[bus] = "0"
		}
		r.StateChanges["999"] = "1"
		r.AlteredMeasurements[0] = -1
		r.CompromisedBuses[0] = -1
	}

	solved, err := svc.Verify(ctx, req)
	if err != nil || solved.Status != "feasible" || solved.Reused || len(solved.StateChanges) == 0 {
		t.Fatalf("first verify = %+v, %v; want a solver-answered feasible attack with state changes", solved, err)
	}
	sc := foldedScenario(t, obj2Spec(), SweepItem{})
	if _, err := core.ExactMeasurementDeltas(sc, witnessOf(t, solved)); err != nil {
		t.Fatalf("published attack fails the evaluator: %v", err)
	}
	want := wire(solved)
	vandalize(solved)
	for i := 0; i < 3; i++ {
		r, err := svc.Verify(ctx, req)
		if err != nil || !r.Reused || !r.Warm {
			t.Fatalf("verify %d = %+v, %v; want a warm reused answer", i, r, err)
		}
		if got := wire(r); got != want {
			t.Fatalf("reused answer %d\n got %s\nwant %s", i, got, want)
		}
		vandalize(r)
	}
}
