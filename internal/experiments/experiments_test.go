package experiments

import (
	"io"
	"strings"
	"testing"

	"segrid/internal/grid"
	"segrid/internal/smt"
)

// The case-study experiments assert the paper's expected outcomes
// internally and return an error on any mismatch, so running them is a
// regression test for the whole reproduction.
func TestCaseStudyAttacksMatchPaper(t *testing.T) {
	var buf strings.Builder
	if err := CaseStudyAttacks(Config{Out: &buf}); err != nil {
		t.Fatalf("CaseStudyAttacks: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"measurements [12 32 39 46 53]",
		"excluded lines [13]",
		"measurement 46 secured → unsat",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCaseStudySynthesisMatchesPaper(t *testing.T) {
	var buf strings.Builder
	if err := CaseStudySynthesis(Config{Out: &buf}); err != nil {
		t.Fatalf("CaseStudySynthesis: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"scenario 2, 4 buses → no architecture",
		"scenario 3, 5 buses → no architecture",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Fig4a(Config{Out: io.Discard})
	if err != nil {
		t.Fatalf("Fig4a: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Shape: average time grows with system size.
	for i := 1; i < len(rows); i++ {
		if rows[i].Buses <= rows[i-1].Buses {
			t.Fatalf("cases not size-ordered")
		}
	}
	// Growth shape: the largest system should not verify faster than the
	// smallest (generous slack against concurrent-load noise).
	if rows[3].Average < rows[0].Average/2 {
		t.Errorf("118-bus average %v faster than 14-bus %v; growth shape broken",
			rows[3].Average, rows[0].Average)
	}
}

func TestFig4dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Fig4d(Config{Out: io.Discard})
	if err != nil {
		t.Fatalf("Fig4d: %v", err)
	}
	// The sat/unsat expectations are asserted inside Fig4d itself; here
	// just check every row carries positive timings. (Relational timing
	// assertions are too flaky under concurrent load; the shape comparison
	// lives in EXPERIMENTS.md and cmd/benchtables output.)
	for _, r := range rows {
		if r.SatTime <= 0 || r.UnsatTime <= 0 {
			t.Fatalf("row %s has non-positive timings", r.Case)
		}
	}
}

// TestParallelSweepMatchesSequential pins the -parallel contract: worker
// pools change only wall-clock, never results or ordering. It also exercises
// the sweep jobs concurrently, so `go test -race` covers the shared-state
// claim in runJobs's contract.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	seq, err := Fig4c(Config{Out: io.Discard})
	if err != nil {
		t.Fatalf("sequential Fig4c: %v", err)
	}
	par, err := Fig4c(Config{Out: io.Discard, Parallel: 4})
	if err != nil {
		t.Fatalf("parallel Fig4c: %v", err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Case != par[i].Case || seq[i].Limit != par[i].Limit || seq[i].Feasible != par[i].Feasible {
			t.Errorf("row %d diverges: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}

// TestSweepBudgetClassified checks that a budget-starved instance surfaces
// from timedVerify, the step every verification sweep row goes through, as
// an error naming the budget instead of a hang or an "unsat" row.
func TestSweepBudgetClassified(t *testing.T) {
	sc := verifyScenario(grid.IEEE30(), 16)
	opts := smt.DefaultOptions()
	opts.Budget = smt.Budget{MaxConflicts: 1}
	sc.Options = &opts
	_, res, err := timedVerify(sc)
	if err == nil {
		t.Fatalf("budget-starved verification returned no error (feasible=%v)", res.Feasible)
	}
	if !strings.Contains(err.Error(), "inconclusive") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("error does not name the budget cause: %v", err)
	}
}

func TestTableIVShape(t *testing.T) {
	rows, err := TableIV(Config{Out: io.Discard})
	if err != nil {
		t.Fatalf("TableIV: %v", err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].VerifyAllocMB <= 0 || rows[i].SelectAllocMB <= 0 {
			t.Fatalf("row %d has non-positive memory", i)
		}
		if rows[i].VerifyClauses <= rows[i-1].VerifyClauses {
			t.Errorf("model size not growing: %v then %v", rows[i-1], rows[i])
		}
	}
}

func TestFig5dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Fig5d(Config{Out: io.Discard})
	if err != nil {
		t.Fatalf("Fig5d: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("no rows")
	}
	byScenario := map[string][]Fig5dRow{}
	for _, r := range rows {
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
		if r.Budget >= r.Minimum {
			t.Fatalf("budget %d not below minimum %d", r.Budget, r.Minimum)
		}
	}
	// Structural check only (timing trends are asserted in EXPERIMENTS.md
	// via cmd/benchtables; relational timing in tests is flaky under
	// load): budgets within a scenario are strictly increasing.
	for name, rs := range byScenario {
		for i := 1; i < len(rs); i++ {
			if rs[i].Budget <= rs[i-1].Budget {
				t.Errorf("%s: budgets not increasing: %v", name, rs)
			}
		}
	}
}
