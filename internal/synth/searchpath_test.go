package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"testing"

	"segrid/internal/core"
	"segrid/internal/grid"
)

// TestAlgorithm1SearchPath pins Algorithm 1's search path: the iteration
// count and the returned architecture of deterministic runs through every
// caller of the candidate loop (sequential bus runs, one-worker cube runs,
// measurement-granular runs), the best candidate of an iteration-capped
// run, and the SHA-256 of every certificate a sequential proof-on run
// writes. A refactor of the loop must reproduce each of these exactly; a
// change of search policy shows up here first.
func TestAlgorithm1SearchPath(t *testing.T) {
	caseStudy := func(scenario, budget int) func() *Requirements {
		return func() *Requirements {
			req, err := CaseStudyRequirements(scenario, budget)
			if err != nil {
				t.Fatalf("CaseStudyRequirements: %v", err)
			}
			return req
		}
	}
	relaxation := func() *Requirements {
		sc := core.NewScenario(grid.IEEE14())
		sc.Meas = core.CaseStudyMeasurements(false)
		sc.TargetStates = []int{12}
		sc.OnlyTargets = true
		return &Requirements{Attack: sc, MaxSecuredBuses: 7, Prune: true}
	}
	anyStateBuses := func(sys *grid.System, budget int) func() *Requirements {
		return func() *Requirements {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			return &Requirements{Attack: sc, MaxSecuredBuses: budget, Prune: true}
		}
	}
	ieee30 := func(budget int) func() *Requirements { return anyStateBuses(grid.IEEE30(), budget) }
	ieee57, err := grid.Case("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	with := func(base func() *Requirements, edit func(*Requirements)) func() *Requirements {
		return func() *Requirements {
			req := base()
			edit(req)
			return req
		}
	}
	noScreen := func(r *Requirements) { r.NoScreen = true }
	cube1 := func(r *Requirements) { r.CubeWorkers = 1 }
	twoIters := func(r *Requirements) { r.MaxIterations = 2 }
	ieee30b12 := []int{1, 5, 6, 11, 13, 15, 16, 20, 21, 24, 26, 27}

	busCases := []struct {
		name string
		req  func() *Requirements
		want searchPin
	}{
		{"scenario1-b4", caseStudy(1, 4), searchPin{iters: 8, ids: []int{1, 6, 8, 9}}},
		{"scenario2-b5", caseStudy(2, 5), searchPin{iters: 5, ids: []int{1, 3, 6, 8, 9}}},
		{"scenario2-b5-noscreen", with(caseStudy(2, 5), noScreen), searchPin{iters: 5, ids: []int{1, 3, 6, 8, 9}}},
		{"scenario3-b6", caseStudy(3, 6), searchPin{iters: 2, ids: []int{1, 3, 6, 7, 10, 14}}},
		{"budget-relaxation", relaxation, searchPin{iters: 2, ids: []int{13}}},
		{"ieee30-b12", ieee30(12), searchPin{iters: 13, ids: ieee30b12}},
		{"ieee30-b10", ieee30(10), searchPin{err: ErrNoArchitecture}},
		{"ieee14-b7", anyStateBuses(grid.IEEE14(), 7), searchPin{iters: 20, ids: []int{1, 3, 8, 9, 11, 12}}},
		{"ieee57-b23", anyStateBuses(ieee57, 23), searchPin{iters: 2, ids: []int{1, 3, 5, 8, 10, 12, 14, 16, 22, 25, 28, 31, 33, 35, 37, 39, 41, 44, 46, 49, 51, 53, 55}}},
		{"scenario2-b5-capped", with(caseStudy(2, 5), twoIters), searchPin{iters: 2, ids: []int{1, 3, 6, 7, 14}, err: ErrBudgetExhausted}},
		{"cube1-scenario1-b4", with(caseStudy(1, 4), cube1), searchPin{iters: 8, ids: []int{1, 6, 8, 9}}},
		{"cube1-scenario2-b5", with(caseStudy(2, 5), cube1), searchPin{iters: 5, ids: []int{1, 3, 6, 8, 9}}},
		{"cube1-scenario3-b6", with(caseStudy(3, 6), cube1), searchPin{iters: 2, ids: []int{1, 3, 6, 7, 10, 14}}},
		{"cube1-ieee30-b12", with(ieee30(12), cube1), searchPin{iters: 13, ids: ieee30b12}},
		{"cube1-ieee30-b10", with(ieee30(10), cube1), searchPin{err: ErrNoArchitecture}},
	}
	for _, tc := range busCases {
		arch, err := Synthesize(tc.req())
		var got searchPin
		if arch != nil {
			got = searchPin{iters: arch.Iterations, ids: arch.SecuredBuses}
		}
		tc.want.check(t, tc.name, got, err)
	}

	star4, err := grid.NewSystem("star4", 4, []grid.Line{
		{ID: 1, From: 1, To: 2, Admittance: 5},
		{ID: 2, From: 1, To: 3, Admittance: 4},
		{ID: 3, From: 1, To: 4, Admittance: 3},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	anyState := func(sys *grid.System, budget int) func() *MeasurementRequirements {
		return func() *MeasurementRequirements {
			sc := core.NewScenario(sys)
			sc.AnyState = true
			return &MeasurementRequirements{Attack: sc, MaxSecuredMeasurements: budget}
		}
	}
	measCases := []struct {
		name string
		req  func() *MeasurementRequirements
		want searchPin
	}{
		{"star4-b3", anyState(star4, 3), searchPin{iters: 4, ids: []int{1, 9, 10}}},
		{"star4-b2", anyState(star4, 2), searchPin{err: ErrNoArchitecture}},
		{"ieee14-b13", anyState(grid.IEEE14(), 13), searchPin{iters: 16,
			ids: []int{3, 11, 19, 25, 27, 28, 38, 41, 45, 47, 48, 52, 53}}},
		{"ieee30-b29", anyState(grid.IEEE30(), 29), searchPin{iters: 42,
			ids: []int{5, 19, 44, 45, 47, 56, 64, 73, 74, 76, 80, 84, 87, 92, 93, 95, 97, 98, 99, 101, 102, 103, 104, 105, 106, 108, 109, 110, 112}}},
		{"ieee14-b13-capped", func() *MeasurementRequirements {
			req := anyState(grid.IEEE14(), 13)()
			req.MaxIterations = 2
			return req
		}, searchPin{iters: 2, ids: []int{3}, err: ErrBudgetExhausted}},
	}
	for _, tc := range measCases {
		arch, err := SynthesizeMeasurements(tc.req())
		var got searchPin
		if arch != nil {
			got = searchPin{iters: arch.Iterations, ids: arch.SecuredMeasurements}
		}
		tc.want.check(t, tc.name, got, err)
	}

	// Certificates: a fixed ProofTag makes the streams' bytes a function of
	// the search path alone.
	dir := t.TempDir()
	proofCases := []struct {
		name string
		req  func() *Requirements
		sums []string
	}{
		{"scenario2-b5", caseStudy(2, 5), []string{"0273b491f27b23a1458a88ae7924b415e69c3a9fc9cc344e5b140223ca3418f3"}},
		{"scenario3-b6", caseStudy(3, 6), []string{
			"c674fb6c9f17fae8f587fa46b3acb4085a37c083a3cfe500c5ec579e881522b5",
			"0a0dc137146fc93172fefa1ee4a204d2b16d1f79eb726cc344fb7bb06298fc28",
			"ae3437efc8d37268e6bc76c378e17031e378a405d8064b7139c8c3260a02e65d",
			"46fcc61f3d1a324c866808156511a57bd3b43b923ea27d127a80c897dcb1308e",
		}},
		{"budget-relaxation", relaxation, []string{"99b237ea38cf34ebd707c12db129b16f419c4eee65a7d2591c381b4b6c209f88"}},
	}
	for _, tc := range proofCases {
		req := tc.req()
		req.ProofDir = dir
		req.ProofTag = tc.name
		arch, err := Synthesize(req)
		if err != nil {
			t.Fatalf("%s proof: %v", tc.name, err)
		}
		checkSums(t, tc.name, arch.ProofFiles, tc.sums)
	}
	mreq := anyState(star4, 3)()
	mreq.ProofDir = dir
	mreq.ProofTag = "star4-b3"
	march, err := SynthesizeMeasurements(mreq)
	if err != nil {
		t.Fatalf("star4-b3 proof: %v", err)
	}
	checkSums(t, "star4-b3", march.ProofFiles, []string{"28b261aaf902c417db46d39267e27018ae006eb91aa05adcf7accf9d57ccde86"})
}

// searchPin is the observable outcome of one synthesis run: iterations and
// architecture on success; on a give-up, the iteration count and the best
// candidate of the *BudgetExhaustedError; on ErrNoArchitecture, the error.
type searchPin struct {
	iters int
	ids   []int
	err   error
}

func (want searchPin) check(t *testing.T, name string, got searchPin, err error) {
	t.Helper()
	var be *BudgetExhaustedError
	if errors.As(err, &be) {
		got = searchPin{iters: be.Iterations, ids: be.BestCandidate}
	}
	switch {
	case want.err == nil && err != nil:
		t.Fatalf("%s: %v", name, err)
	case want.err != nil && !errors.Is(err, want.err):
		t.Fatalf("%s: err = %v, want %v", name, err, want.err)
	case want.err == ErrNoArchitecture:
		return
	}
	if got.iters != want.iters || fmt.Sprint(got.ids) != fmt.Sprint(want.ids) {
		t.Errorf("%s: %d iterations %v, want %d iterations %v", name, got.iters, got.ids, want.iters, want.ids)
	}
}

// checkSums compares the SHA-256 of each certificate file with want.
func checkSums(t *testing.T, name string, paths, want []string) {
	t.Helper()
	got := make([]string, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: read certificate: %v", name, err)
		}
		sum := sha256.Sum256(data)
		got[i] = hex.EncodeToString(sum[:])
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: certificate sums %q, want %q", name, got, want)
	}
}
