package synth

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segrid/internal/proof"
)

// TestCubeMatchesSequentialScenarios: cube-and-conquer must synthesize a
// protecting architecture wherever the sequential loop does — the cubes
// partition the candidate space, so no solution can fall between them.
func TestCubeMatchesSequentialScenarios(t *testing.T) {
	for _, tc := range []struct {
		scenario, maxBuses, workers int
	}{
		{1, 4, 4},
		{2, 5, 4},
		{2, 5, 2},
		{3, 6, 3},
	} {
		req, err := CaseStudyRequirements(tc.scenario, tc.maxBuses)
		if err != nil {
			t.Fatalf("CaseStudyRequirements: %v", err)
		}
		req.CubeWorkers = tc.workers
		arch := synthesize(t, req)
		if len(arch.SecuredBuses) > tc.maxBuses {
			t.Fatalf("scenario %d: architecture %v exceeds %d buses", tc.scenario, arch.SecuredBuses, tc.maxBuses)
		}
		if !protectsIn(t, arch.SecuredBuses, req.Attack) {
			t.Fatalf("scenario %d: cube architecture %v does not protect", tc.scenario, arch.SecuredBuses)
		}
		for i, sc := range req.ExtraAttacks {
			if !protectsIn(t, arch.SecuredBuses, sc) {
				t.Fatalf("scenario %d: cube architecture fails topology variant %d", tc.scenario, i+1)
			}
		}
		if arch.Workers < 1 || arch.Workers > tc.workers {
			t.Fatalf("scenario %d: Workers = %d, want within [1, %d]", tc.scenario, arch.Workers, tc.workers)
		}
		if arch.VerifyStats.Workers != arch.Workers || arch.SelectStats.Workers != arch.Workers {
			t.Fatalf("scenario %d: stats workers %d/%d, want %d",
				tc.scenario, arch.SelectStats.Workers, arch.VerifyStats.Workers, arch.Workers)
		}
		if arch.Iterations < 1 {
			t.Fatalf("scenario %d: Iterations = %d", tc.scenario, arch.Iterations)
		}
	}
}

// TestCubeNoArchitectureComplete: the impossibility verdict must survive the
// partitioning — every cube exhausting means the whole space is empty, and
// the run must say so rather than give up.
func TestCubeNoArchitectureComplete(t *testing.T) {
	req, err := CaseStudyRequirements(2, 4)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.CubeWorkers = 4
	if _, err := Synthesize(req); !errors.Is(err, ErrNoArchitecture) {
		t.Fatalf("cube synthesis = %v, want ErrNoArchitecture (paper Scenario 2, 4 buses)", err)
	}
}

// TestCubeProofPublishedAndTrimmed: with certificate logging on, only the
// winning worker's streams may publish — trimmed, renamed to the canonical
// attack-<tag>-<i>.proof names, and acceptable to the independent checker.
// Losing workers' staged streams must vanish entirely.
func TestCubeProofPublishedAndTrimmed(t *testing.T) {
	dir := t.TempDir()
	req, err := CaseStudyRequirements(1, 4)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.CubeWorkers = 3
	req.ProofDir = dir
	req.ProofTag = "cube"
	arch := synthesize(t, req)
	if !protectsIn(t, arch.SecuredBuses, req.Attack) {
		t.Fatalf("architecture does not protect")
	}
	want := []string{filepath.Join(dir, "attack-cube-0.proof")}
	if len(arch.ProofFiles) != len(want) || arch.ProofFiles[0] != want[0] {
		t.Fatalf("ProofFiles = %v, want %v", arch.ProofFiles, want)
	}
	for _, path := range arch.ProofFiles {
		rep, err := proof.CheckFile(path)
		if err != nil {
			t.Fatalf("winner certificate rejected: %v", err)
		}
		if rep.UnsatChecks < 1 {
			t.Fatalf("winner certificate has no unsat checks")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "-w") || strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray worker/staging file %q survived the run", e.Name())
		}
	}
}

// TestCubeIterationBound: the iteration cap is global across workers and
// ends the run with a BudgetExhaustedError, not a hang or a false verdict.
func TestCubeIterationBound(t *testing.T) {
	req, err := CaseStudyRequirements(2, 4)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.CubeWorkers = 2
	req.MaxIterations = 1
	_, err = Synthesize(req)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("got %v, want ErrBudgetExhausted", err)
	}
}

// TestCubeAutoWorkers: CubeWorkers < 0 resolves to the GOMAXPROCS-aware
// default.
func TestCubeAutoWorkers(t *testing.T) {
	req, err := CaseStudyRequirements(1, 4)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	req.CubeWorkers = -1
	arch := synthesize(t, req)
	if arch.Workers < 1 {
		t.Fatalf("Workers = %d, want ≥ 1", arch.Workers)
	}
	if !protectsIn(t, arch.SecuredBuses, req.Attack) {
		t.Fatalf("architecture does not protect")
	}
}

// TestDefaultWorkers pins the GOMAXPROCS-aware clamp.
func TestDefaultWorkers(t *testing.T) {
	if n := DefaultWorkers(); n < 1 || n > maxDefaultWorkers {
		t.Fatalf("DefaultWorkers() = %d, want within [1, %d]", n, maxDefaultWorkers)
	}
}

// TestCubePlanPartition: the planned cubes are an exact partition — every
// pivot assignment appears exactly once — and pivots avoid operator-fixed
// and (under Eq. 30 pruning) mutually adjacent buses.
func TestCubePlanPartition(t *testing.T) {
	req, err := CaseStudyRequirements(2, 5)
	if err != nil {
		t.Fatalf("CaseStudyRequirements: %v", err)
	}
	cubes := planCubes(req, 4)
	if len(cubes) == 0 {
		t.Fatalf("no cubes planned")
	}
	seen := make(map[string]bool)
	for _, cube := range cubes {
		key := ""
		for _, cl := range cube {
			if cl.bus == 1 {
				t.Fatalf("required bus 1 used as pivot")
			}
			if cl.secured {
				key += "1"
			} else {
				key += "0"
			}
		}
		if seen[key] {
			t.Fatalf("duplicate cube %q", key)
		}
		seen[key] = true
	}
	if len(seen) != len(cubes) || len(cubes)&(len(cubes)-1) != 0 {
		t.Fatalf("cubes do not form a power-of-two partition: %d", len(cubes))
	}
}
