// Package segrid's benchmark harness: one benchmark per table and figure of
// the paper's evaluation (Section V), plus ablation benches for the design
// choices called out in DESIGN.md and microbenchmarks of the solver
// substrate. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/benchtables prints the same experiments as paper-style tables.
package segrid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"segrid/internal/acflow"
	"segrid/internal/acse"
	"segrid/internal/core"
	"segrid/internal/dcflow"
	"segrid/internal/dcopf"
	"segrid/internal/grid"
	"segrid/internal/scenariofile"
	"segrid/internal/se"
	"segrid/internal/service"
	"segrid/internal/smt"
	"segrid/internal/synth"
)

// mustCase loads a registered test system or fails the benchmark.
func mustCase(b *testing.B, name string) *grid.System {
	b.Helper()
	sys, err := grid.Case(name)
	if err != nil {
		b.Fatalf("Case(%s): %v", name, err)
	}
	return sys
}

// verifyScenario mirrors the Fig. 4 timing scenario from
// internal/experiments.
func verifyScenario(sys *grid.System, target int) *core.Scenario {
	sc := core.NewScenario(sys)
	sc.TargetStates = []int{target}
	sc.MaxAlteredMeasurements = sys.NumMeasurements() / 4
	sc.MaxCompromisedBuses = sys.Buses / 4
	return sc
}

func runVerify(b *testing.B, sc *core.Scenario, wantFeasible bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := core.Verify(sc)
		if err != nil {
			b.Fatalf("Verify: %v", err)
		}
		if res.Feasible != wantFeasible {
			b.Fatalf("Feasible = %v, want %v", res.Feasible, wantFeasible)
		}
	}
}

// BenchmarkFig4aVerification measures attack-verification time against
// problem size (paper Fig. 4(a)).
func BenchmarkFig4aVerification(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys := mustCase(b, name)
		b.Run(name, func(b *testing.B) {
			runVerify(b, verifyScenario(sys, 1+sys.Buses/2), true)
		})
	}
}

// BenchmarkExactMeasurementDeltas measures the exact evaluator (Eqs. 5–26)
// on a Fig. 4(a) witness: the check every feasible verdict passes before it
// is published, and the whole cost of a warm verdict served from a pooled
// encoder's witness ring.
func BenchmarkExactMeasurementDeltas(b *testing.B) {
	for _, name := range []string{"ieee30", "ieee57"} {
		sys := mustCase(b, name)
		sc := verifyScenario(sys, 1+sys.Buses/2)
		res, err := core.Verify(sc)
		if err != nil || !res.Feasible {
			b.Fatalf("%s: no Fig. 4(a) witness (feasible=%v, err=%v)", name, res != nil && res.Feasible, err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ExactMeasurementDeltas(sc, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4bTakenMeasurements measures verification time against the
// share of taken measurements (paper Fig. 4(b)).
func BenchmarkFig4bTakenMeasurements(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, frac := range []float64{0.6, 0.8, 1.0} {
		b.Run(fmt.Sprintf("taken%.0f%%", frac*100), func(b *testing.B) {
			sc := verifyScenario(sys, 1+sys.Buses/2)
			if err := sc.Meas.KeepFraction(frac); err != nil {
				b.Fatalf("KeepFraction: %v", err)
			}
			runVerify(b, sc, true)
		})
	}
}

// BenchmarkFig4cResourceLimit measures verification time against the
// attacker's resource limit (paper Fig. 4(c)).
func BenchmarkFig4cResourceLimit(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, limit := range []int{8, 16, 28} {
		b.Run(fmt.Sprintf("tcz%d", limit), func(b *testing.B) {
			sc := core.NewScenario(sys)
			sc.TargetStates = []int{1 + sys.Buses/2}
			sc.MaxAlteredMeasurements = limit
			runVerify(b, sc, true)
		})
	}
}

// BenchmarkFig4dSatVsUnsat compares satisfiable and unsatisfiable
// verification (paper Fig. 4(d)).
func BenchmarkFig4dSatVsUnsat(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57"} {
		sys := mustCase(b, name)
		b.Run(name+"/sat", func(b *testing.B) {
			runVerify(b, verifyScenario(sys, 1+sys.Buses/2), true)
		})
		b.Run(name+"/unsat", func(b *testing.B) {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			sc.MaxAlteredMeasurements = 3
			runVerify(b, sc, false)
		})
	}
}

// synthReq builds the Fig. 5 synthesis workload: unrestricted attacker,
// known-feasible budget.
func synthReq(b *testing.B, sys *grid.System, budget int) *synth.Requirements {
	b.Helper()
	sc := core.NewScenario(sys)
	sc.AnyState = true
	return &synth.Requirements{Attack: sc, MaxSecuredBuses: budget, Prune: true}
}

func runSynth(b *testing.B, mk func() *synth.Requirements) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(mk()); err != nil {
			b.Fatalf("Synthesize: %v", err)
		}
	}
}

// Feasible synthesis budgets per system (greedy baseline size + 2,
// precomputed; see internal/experiments.synthRequirements).
var synthBudgets = map[string]int{"ieee14": 7, "ieee30": 12, "ieee57": 23, "ieee118": 43}

// BenchmarkFig5aSynthesis measures synthesis time against problem size
// (paper Fig. 5(a)).
func BenchmarkFig5aSynthesis(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57"} {
		sys := mustCase(b, name)
		b.Run(name, func(b *testing.B) {
			runSynth(b, func() *synth.Requirements { return synthReq(b, sys, synthBudgets[name]) })
		})
	}
}

// BenchmarkFig5bSynthesisTaken measures synthesis time against the share of
// taken measurements (paper Fig. 5(b)).
func BenchmarkFig5bSynthesisTaken(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, frac := range []float64{0.8, 1.0} {
		b.Run(fmt.Sprintf("taken%.0f%%", frac*100), func(b *testing.B) {
			runSynth(b, func() *synth.Requirements {
				req := synthReq(b, sys, synthBudgets["ieee30"]+2)
				meas := grid.NewMeasurementConfig(sys)
				if err := meas.KeepFraction(frac); err != nil {
					b.Fatalf("KeepFraction: %v", err)
				}
				req.Attack.Meas = meas
				return req
			})
		})
	}
}

// BenchmarkFig5cSynthesisLimit measures synthesis time against the
// attacker's resource limit (paper Fig. 5(c)).
func BenchmarkFig5cSynthesisLimit(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, pct := range []int{40, 80, 100} {
		b.Run(fmt.Sprintf("tcz%d%%", pct), func(b *testing.B) {
			runSynth(b, func() *synth.Requirements {
				req := synthReq(b, sys, synthBudgets["ieee30"])
				req.Attack.MaxAlteredMeasurements = pct * sys.NumMeasurements() / 100
				return req
			})
		})
	}
}

// BenchmarkFig5dSynthesisUnsat measures synthesis time in unsatisfiable
// cases as the operator budget approaches the minimum from below (paper
// Fig. 5(d); the 30-bus minimum is 11 buses).
func BenchmarkFig5dSynthesisUnsat(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, budget := range []int{8, 10} {
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := synthReq(b, sys, budget)
				if _, err := synth.Synthesize(req); err == nil {
					b.Fatalf("budget %d unexpectedly satisfiable", budget)
				}
			}
		})
	}
}

// BenchmarkTableIVModelMemory builds and solves the unrestricted-attacker
// verification model; -benchmem's B/op column is the Table IV analogue.
func BenchmarkTableIVModelMemory(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118"} {
		sys := mustCase(b, name)
		b.Run(name, func(b *testing.B) {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			runVerify(b, sc, true)
		})
	}
}

// BenchmarkCaseStudyObjective1 times the paper's Section III-I Objective 1
// verification (16 measurements / 7 buses, distinct amounts).
func BenchmarkCaseStudyObjective1(b *testing.B) {
	sc := core.NewScenario(core.CaseStudyMeasurements(true).System())
	sc.Meas = core.CaseStudyMeasurements(true)
	sc.Knowledge = core.CaseStudyKnowledge()
	sc.TargetStates = []int{9, 10}
	sc.MaxAlteredMeasurements = 16
	sc.MaxCompromisedBuses = 7
	sc.DistinctPairs = [][2]int{{9, 10}}
	runVerify(b, sc, true)
}

// BenchmarkCaseStudyObjective2 times the topology-poisoning variant of
// Objective 2.
func BenchmarkCaseStudyObjective2(b *testing.B) {
	sc := core.NewScenario(core.CaseStudyMeasurements(false).System())
	sc.Meas = core.CaseStudyMeasurements(false)
	if err := sc.Meas.Secure(46); err != nil {
		b.Fatalf("Secure: %v", err)
	}
	sc.TargetStates = []int{12}
	sc.OnlyTargets = true
	sc.AllowExclusion = true
	sc.AllowInclusion = true
	sc.InService, sc.FixedLines, sc.SecuredStatus = core.CaseStudyTopology()
	runVerify(b, sc, true)
}

// --- ablation benches (design choices from DESIGN.md) -------------------

// BenchmarkAblationPruning compares synthesis with and without the Eq. 30
// candidate-space reduction.
func BenchmarkAblationPruning(b *testing.B) {
	sys := mustCase(b, "ieee30")
	for _, prune := range []bool{true, false} {
		name := "eq30"
		if !prune {
			name = "noprune"
		}
		b.Run(name, func(b *testing.B) {
			runSynth(b, func() *synth.Requirements {
				req := synthReq(b, sys, synthBudgets["ieee30"])
				req.Prune = prune
				return req
			})
		})
	}
}

// --- substrate microbenchmarks ------------------------------------------

// BenchmarkWLSEstimation measures one full WLS estimation on each system.
func BenchmarkWLSEstimation(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee57", "ieee300"} {
		sys := mustCase(b, name)
		b.Run(name, func(b *testing.B) {
			meas := grid.NewMeasurementConfig(sys)
			est, err := se.NewEstimator(meas, se.Config{RefBus: 1, Sigma: 0.01})
			if err != nil {
				b.Fatalf("NewEstimator: %v", err)
			}
			angles := make([]float64, sys.Buses+1)
			for j := 2; j <= sys.Buses; j++ {
				angles[j] = 0.01 * float64(j%9)
			}
			z, err := dcflow.MeasureAll(sys, nil, angles)
			if err != nil {
				b.Fatalf("MeasureAll: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Estimate(z); err != nil {
					b.Fatalf("Estimate: %v", err)
				}
			}
		})
	}
}

// BenchmarkSMTSolver measures the SMT substrate on a pure pigeonhole
// instance (propositional stress) and a linear-arithmetic chain.
func BenchmarkSMTSolver(b *testing.B) {
	b.Run("pigeonhole7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := smt.NewSolver(smt.DefaultOptions())
			const holes = 7
			vars := make([][]smt.BoolVar, holes+1)
			for p := range vars {
				vars[p] = make([]smt.BoolVar, holes)
				for h := range vars[p] {
					vars[p][h] = s.BoolVar("v")
				}
			}
			for p := 0; p <= holes; p++ {
				fs := make([]smt.Formula, holes)
				for h := 0; h < holes; h++ {
					fs[h] = smt.B(vars[p][h])
				}
				s.Assert(smt.Or(fs...))
			}
			for h := 0; h < holes; h++ {
				fs := make([]smt.Formula, holes+1)
				for p := 0; p <= holes; p++ {
					fs[p] = smt.B(vars[p][h])
				}
				s.AssertAtMostK(fs, 1)
			}
			res, err := s.Check()
			if err != nil || res.Status != smt.Unsat {
				b.Fatalf("pigeonhole: %v %v", res.Status, err)
			}
		}
	})
	b.Run("lra-chain200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := smt.NewSolver(smt.DefaultOptions())
			prev := s.RealVar("x0")
			s.Assert(smt.GE(smt.NewLinExpr().TermInt(1, prev), ratInt(0)))
			for k := 1; k < 200; k++ {
				cur := s.RealVar("x")
				diff := smt.NewLinExpr().TermInt(1, cur).TermInt(-1, prev)
				s.Assert(smt.GE(diff, ratInt(1)))
				prev = cur
			}
			s.Assert(smt.LE(smt.NewLinExpr().TermInt(1, prev), ratInt(100)))
			res, err := s.Check()
			if err != nil || res.Status != smt.Unsat {
				b.Fatalf("chain: %v %v", res.Status, err)
			}
		}
	})
}

// --- extension benches ----------------------------------------------------

// BenchmarkACPowerFlow measures one Newton–Raphson solve on the lifted
// 14- and 30-bus networks.
func BenchmarkACPowerFlow(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30"} {
		sys := mustCase(b, name)
		n, err := acflow.FromDC(sys, 0.1, 0.02)
		if err != nil {
			b.Fatalf("FromDC: %v", err)
		}
		p := make([]float64, n.Buses+1)
		q := make([]float64, n.Buses+1)
		for j := 2; j <= n.Buses; j++ {
			p[j] = -0.05
			q[j] = -0.015
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := n.Solve(acflow.FlowCase{Slack: 1, SlackV: 1.02, P: p, Q: q}); err != nil {
					b.Fatalf("Solve: %v", err)
				}
			}
		})
	}
}

// BenchmarkACStateEstimation measures one Gauss–Newton WLS estimation over
// the full AC measurement set.
func BenchmarkACStateEstimation(b *testing.B) {
	sys := mustCase(b, "ieee14")
	n, err := acflow.FromDC(sys, 0.1, 0.02)
	if err != nil {
		b.Fatalf("FromDC: %v", err)
	}
	p := make([]float64, n.Buses+1)
	q := make([]float64, n.Buses+1)
	for j := 2; j <= n.Buses; j++ {
		p[j] = -0.05
		q[j] = -0.015
	}
	st, err := n.Solve(acflow.FlowCase{Slack: 1, SlackV: 1.02, P: p, Q: q})
	if err != nil {
		b.Fatalf("Solve: %v", err)
	}
	ms := acse.FullMeasurementSet(n)
	z, err := acse.MeasureAll(n, st, ms)
	if err != nil {
		b.Fatalf("MeasureAll: %v", err)
	}
	est, err := acse.NewEstimator(n, ms, 1, 0.01)
	if err != nil {
		b.Fatalf("NewEstimator: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(z); err != nil {
			b.Fatalf("Estimate: %v", err)
		}
	}
}

// BenchmarkDCOPF measures one exact-rational optimal dispatch.
func BenchmarkDCOPF(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30"} {
		sys := mustCase(b, name)
		load := make([]float64, sys.Buses+1)
		for j := 2; j <= sys.Buses; j++ {
			load[j] = 0.05
		}
		c := &dcopf.Case{
			Sys: sys,
			Gens: []dcopf.Generator{
				{Bus: 1, MinP: 0, MaxP: 2, Cost: 20},
				{Bus: 3, MinP: 0, MaxP: 1, Cost: 35},
			},
			Load:   load,
			RefBus: 1,
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Solve(); err != nil {
					b.Fatalf("Solve: %v", err)
				}
			}
		})
	}
}

// BenchmarkMeasurementSynthesis measures the measurement-granular
// Algorithm 1 against the unlimited attacker on the 14-bus system.
func BenchmarkMeasurementSynthesis(b *testing.B) {
	sys := mustCase(b, "ieee14")
	for i := 0; i < b.N; i++ {
		sc := core.NewScenario(sys)
		sc.AnyState = true
		if _, err := synth.SynthesizeMeasurements(&synth.MeasurementRequirements{
			Attack:                 sc,
			MaxSecuredMeasurements: sys.Buses - 1,
		}); err != nil {
			b.Fatalf("SynthesizeMeasurements: %v", err)
		}
	}
}

// BenchmarkSweepVsSequential measures the service-layer batched sweep
// against the batch-unaware baseline on a fig5a-style family: the obj2 case
// study under per-item secured-measurement deltas. The sequential variant
// answers each item as its own verification with the delta folded into a
// self-contained spec (one cold encoder build per item); the sweep variant
// answers the whole family through one /v1/sweep plan — one pooled encoder,
// per-item scoped overlays. A fresh service per iteration keeps every build
// inside the timed loop.
func BenchmarkSweepVsSequential(b *testing.B) {
	base := scenariofile.AttackSpec{
		Case:        "ieee14",
		Untaken:     []int{5, 10, 14, 19, 22, 27, 30, 35, 43, 52},
		Targets:     []int{12},
		OnlyTargets: true,
	}
	ids := []int{1, 2, 3, 4, 6, 7, 8, 9, 11, 46}
	items := []service.SweepItem{{}}
	for _, id := range ids {
		items = append(items, service.SweepItem{SecuredMeasurements: []int{id}})
	}
	newSvc := func(b *testing.B) *service.Service {
		svc, err := service.New(service.Config{})
		if err != nil {
			b.Fatalf("service.New: %v", err)
		}
		return svc
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := newSvc(b)
			for _, it := range items {
				spec := base
				spec.Secured = append([]int(nil), it.SecuredMeasurements...)
				resp, err := svc.Verify(context.Background(), &service.VerifyRequest{Attack: spec})
				if err != nil {
					b.Fatalf("Verify: %v", err)
				}
				if resp.Status != "feasible" && resp.Status != "infeasible" {
					b.Fatalf("inconclusive: %s", resp.Why)
				}
			}
			svc.Close()
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := newSvc(b)
			resp, err := svc.Sweep(context.Background(), &service.SweepRequest{Attack: base, Items: items})
			if err != nil {
				b.Fatalf("Sweep: %v", err)
			}
			if resp.EncoderBuilds != 1 {
				b.Fatalf("sweep paid %d encoder builds, want 1", resp.EncoderBuilds)
			}
			for j, item := range resp.Items {
				if item.Status != "feasible" && item.Status != "infeasible" {
					b.Fatalf("item %d inconclusive: %s", j, item.Why)
				}
			}
			svc.Close()
		}
	})
}

// BenchmarkServeVerifyWarm measures segridd's main path as one call of the
// service's HTTP handler: a warm ieee30 Fig. 4(a) verify that the pooled
// encoder's witness ring answers. It covers decoding, planning, the
// scheduler, the ring hit with its exact evaluator check and encoding the
// response; an httptest.ResponseRecorder stands in for the network.
func BenchmarkServeVerifyWarm(b *testing.B) {
	sys := mustCase(b, "ieee30")
	body, err := json.Marshal(service.VerifyRequest{Attack: scenariofile.AttackSpec{
		Case:            "ieee30",
		Targets:         []int{1 + sys.Buses/2},
		MaxMeasurements: sys.NumMeasurements() / 4,
		MaxBuses:        sys.Buses / 4,
	}})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Config{})
	if err != nil {
		b.Fatalf("service.New: %v", err)
	}
	defer svc.Close()
	h := svc.Handler()
	serve := func() *service.VerifyResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("verify answered %d: %s", rec.Code, rec.Body)
		}
		var resp service.VerifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		return &resp
	}
	// The first request builds the encoder and fills its ring; from the
	// second on the ring answers.
	if r := serve(); r.Status != "feasible" {
		b.Fatalf("cold verify = %+v, want feasible", r)
	}
	if r := serve(); !r.Reused {
		b.Fatalf("warm verify = %+v, want a ring hit", r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("verify answered %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkLNRIdentification measures one full LNR pass with a planted
// gross error.
func BenchmarkLNRIdentification(b *testing.B) {
	sys := mustCase(b, "ieee14")
	meas := grid.NewMeasurementConfig(sys)
	est, err := se.NewEstimator(meas, se.Config{RefBus: 1, Sigma: 0.005})
	if err != nil {
		b.Fatalf("NewEstimator: %v", err)
	}
	angles := make([]float64, sys.Buses+1)
	for j := 2; j <= sys.Buses; j++ {
		angles[j] = 0.01 * float64(j%5)
	}
	z, err := dcflow.MeasureAll(sys, nil, angles)
	if err != nil {
		b.Fatalf("MeasureAll: %v", err)
	}
	z[9] += 0.8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.IdentifyBadData(z, 3.5, 3); err != nil {
			b.Fatalf("IdentifyBadData: %v", err)
		}
	}
}
