package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"segrid/internal/service"
)

// draw takes the first n ops of a seed's stream.
func draw(w *workload, seed int64, n int) []*op {
	gen := w.next(seed)
	out := make([]*op, n)
	for i := range out {
		out[i] = gen()
	}
	return out
}

func TestStreamsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(w, 7, 120), draw(w, 7, 120)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, draw(w, 8, 120)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

// Each warm encoder must see its requests in the same order in every run:
// the seed may only decide in which order the client visits the shapes.
func TestVerifyWarmEncoderOrderIgnoresSeed(t *testing.T) {
	w, err := workloadByName("verify-warm")
	if err != nil {
		t.Fatal(err)
	}
	perShape := func(seed int64) map[string][]string {
		out := map[string][]string{}
		for _, o := range draw(w, seed, w.warmIn+2*w.window) {
			shape := fmt.Sprint(o.verify.Attack)
			out[shape] = append(out[shape], fmt.Sprint(o.verify.SecuredMeasurements))
		}
		return out
	}
	want := perShape(1)
	if len(want) != len(verifyShapes) {
		t.Fatalf("%d shapes in use, want %d", len(want), len(verifyShapes))
	}
	for seed := int64(2); seed <= 5; seed++ {
		if !reflect.DeepEqual(perShape(seed), want) {
			t.Fatalf("seed %d changes some encoder's request order", seed)
		}
	}
}

func TestSweepItemsNeverRepeat(t *testing.T) {
	w, err := workloadByName("sweep-screen")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	tightened := 0
	for _, o := range draw(w, 3, 30*sweepRound) {
		for i := range o.sweep.Items {
			it := &o.sweep.Items[i]
			if it.MaxAlteredMeasurements != nil {
				tightened++
			}
			key := o.sweep.Attack.Case + itemKey(it)
			if seen[key] {
				t.Fatalf("item %s repeats", key)
			}
			seen[key] = true
		}
	}
	if tightened == 0 {
		t.Fatal("no tightened-bound items in the stream")
	}
}

func TestCoveredUnionsIntervals(t *testing.T) {
	got := covered([][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 20}, {2, 4}})
	if want := int64(4 + 7); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
}

// The correctness gate must reject a verdict that disagrees with the
// reference.
func TestGateRejectsWrongVerdict(t *testing.T) {
	o := &op{id: 1, verify: &service.VerifyRequest{Attack: sweepFamily14}}
	if _, err := verifyAll([]*outcome{{op: o, verify: &service.VerifyResponse{Status: "feasible"}}}, 1); err != nil {
		t.Fatalf("right verdict rejected: %v", err)
	}
	_, err := verifyAll([]*outcome{{op: o, verify: &service.VerifyResponse{Status: "infeasible"}}}, 1)
	var wa wrongAnswer
	if !errors.As(err, &wa) {
		t.Fatalf("wrong verdict not rejected: %v", err)
	}
}

// Two traced replays of the same seed must do exactly the same work: the
// solver, screen and synthesis counters repeat.
func TestTracedReplayCountersRepeat(t *testing.T) {
	short := map[string]int{"verify-warm": 40, "sweep-screen": sweepRound, "synth-certify": 8}
	for _, base := range workloads {
		w := *base
		w.traceOps = short[w.name]
		t.Run(w.name, func(t *testing.T) {
			var runs []counts
			for i := 0; i < 2; i++ {
				p, err := runReplay(&w, 11, true, t.TempDir(), fmt.Sprintf("test%d", i))
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, p.r.c)
			}
			a, b := runs[0], runs[1]
			// Heap bytes and times are measurements, not counts.
			for _, c := range []*counts{&a, &b} {
				c.allocBytes, c.screenWasted, c.screenTime, c.selectTime, c.verifyTime = 0, 0, 0, 0, 0
			}
			if a != b {
				t.Fatalf("counters differ between two replays of one seed:\n%+v\n%+v", a, b)
			}
			if a.SMTChecks+a.ScreenCalls+a.SynthRuns == 0 {
				t.Fatal("replay did no work")
			}
		})
	}
}
