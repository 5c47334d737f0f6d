package sat

import (
	"errors"
	"math/rand"
	"testing"
)

// TestSolveAssumingBasic exercises assumption-driven solving on a tiny
// instance: the same clause set answers differently under different
// assumptions, without any re-encoding.
func TestSolveAssumingBasic(t *testing.T) {
	s := NewSolver(Options{})
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a → b, b → c, c → ¬a would make {a} unsat; use exactly that.
	mustAdd(t, s, NegLit(a), PosLit(b))
	mustAdd(t, s, NegLit(b), PosLit(c))
	mustAdd(t, s, NegLit(c), NegLit(a))

	st, err := s.SolveAssuming(PosLit(a))
	if err != nil || st != StatusUnsat {
		t.Fatalf("SolveAssuming(a) = %v, %v; want unsat", st, err)
	}
	confl := s.FinalConflict()
	if len(confl) == 0 {
		t.Fatalf("FinalConflict = nil, want the failed assumption subset")
	}
	for _, l := range confl {
		if l != PosLit(a) {
			t.Fatalf("FinalConflict contains %v, want only the assumption a", l)
		}
	}

	st, err = s.SolveAssuming(NegLit(a))
	if err != nil || st != StatusSat {
		t.Fatalf("SolveAssuming(¬a) = %v, %v; want sat", st, err)
	}
	if s.Value(a) {
		t.Fatalf("model sets a under assumption ¬a")
	}
	if s.FinalConflict() != nil {
		t.Fatalf("FinalConflict non-nil after sat")
	}
	s.Backtrack()

	// No assumptions: satisfiable (pick ¬a).
	st, err = s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("Solve = %v, %v; want sat", st, err)
	}
}

// TestSolveAssumingContradictoryAssumptions checks a conflict between the
// assumptions themselves is detected and explained.
func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := NewSolver(Options{})
	a := s.NewVar()
	b := s.NewVar()
	mustAdd(t, s, PosLit(a), PosLit(b)) // keep both vars constrained

	st, err := s.SolveAssuming(PosLit(a), NegLit(a))
	if err != nil || st != StatusUnsat {
		t.Fatalf("SolveAssuming(a, ¬a) = %v, %v; want unsat", st, err)
	}
	confl := s.FinalConflict()
	seen := map[Lit]bool{}
	for _, l := range confl {
		seen[l] = true
	}
	if !seen[PosLit(a)] || !seen[NegLit(a)] {
		t.Fatalf("FinalConflict = %v, want both a and ¬a", confl)
	}
}

// TestSolveAssumingGlobalUnsat checks that a clause-set contradiction (not
// assumption-driven) reports a nil FinalConflict.
func TestSolveAssumingGlobalUnsat(t *testing.T) {
	s := NewSolver(Options{})
	a := s.NewVar()
	b := s.NewVar()
	mustAdd(t, s, PosLit(a))
	mustAdd(t, s, NegLit(a))
	st, err := s.SolveAssuming(PosLit(b))
	if err != nil || st != StatusUnsat {
		t.Fatalf("SolveAssuming = %v, %v; want unsat", st, err)
	}
	if c := s.FinalConflict(); c != nil {
		t.Fatalf("FinalConflict = %v, want nil for a global contradiction", c)
	}
}

// TestSolveAssumingIncrementalClauses interleaves clause additions with
// assumption solves, the selector-literal pattern the SMT layer uses: each
// "scope" guard g_i disables its clause once ¬g_i is asserted.
func TestSolveAssumingIncrementalClauses(t *testing.T) {
	s := NewSolver(Options{})
	x := s.NewVar()
	g1 := s.NewVar()
	mustAdd(t, s, PosLit(x)) // base: x
	// Scoped clause ¬x guarded by g1.
	mustAdd(t, s, NegLit(x), NegLit(g1))

	st, err := s.SolveAssuming(PosLit(g1))
	if err != nil || st != StatusUnsat {
		t.Fatalf("with scope live: %v, %v; want unsat", st, err)
	}
	// Pop the scope: permanently disable g1's clauses.
	mustAdd(t, s, NegLit(g1))
	st, err = s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("after pop: %v, %v; want sat", st, err)
	}
	if !s.Value(x) {
		t.Fatalf("model must keep x true")
	}
	s.Backtrack()

	// A new scope over a fresh selector works on the same instance.
	g2 := s.NewVar()
	mustAdd(t, s, NegLit(x), NegLit(g2))
	st, err = s.SolveAssuming(PosLit(g2))
	if err != nil || st != StatusUnsat {
		t.Fatalf("second scope: %v, %v; want unsat", st, err)
	}
}

// TestBudgetPerCallNotCumulative is the regression test for the cumulative
// budget accounting bug: Solve used to compare the per-call MaxConflicts
// budget against the cumulative stats counters, so a second Solve on the
// same instance instantly returned ErrBudget even though it did no work of
// its own.
func TestBudgetPerCallNotCumulative(t *testing.T) {
	// Guard every pigeonhole clause with a selector g so unsatisfiability is
	// assumption-relative: a permanent (level-0) unsat would let later calls
	// short-circuit without ever consulting the budgets.
	guardedPigeonhole := func(t *testing.T, s *Solver, holes int) Lit {
		t.Helper()
		g := PosLit(s.NewVar())
		pigeons := holes + 1
		vs := make([][]Var, pigeons)
		for p := range vs {
			vs[p] = newVars(s, holes)
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]Lit, 0, holes+1)
			for h := 0; h < holes; h++ {
				lits = append(lits, PosLit(vs[p][h]))
			}
			mustAdd(t, s, append(lits, g.Not())...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					mustAdd(t, s, NegLit(vs[p1][h]), NegLit(vs[p2][h]), g.Not())
				}
			}
		}
		return g
	}
	t.Run("conflicts", func(t *testing.T) {
		s := NewSolver(Options{})
		g := guardedPigeonhole(t, s, 6)
		st, err := s.SolveAssuming(g)
		if err != nil || st != StatusUnsat {
			t.Fatalf("first Solve = %v, %v; want unsat", st, err)
		}
		used := s.Statistics().Conflicts
		if used == 0 {
			t.Fatalf("test instance solved without conflicts; pick a harder one")
		}
		// Per-call budget equal to the cumulative counter: the old code
		// compared the budget against cumulative stats and returned ErrBudget
		// before doing any work; the fixed code measures this call's own
		// conflicts (far fewer, thanks to the retained learnt clauses).
		s.SetBudgets(used)
		st, err = s.SolveAssuming(g)
		if errors.Is(err, ErrBudget) {
			t.Fatalf("second Solve spuriously hit the conflict budget (cumulative %d, per-call budget %d)",
				s.Statistics().Conflicts, used)
		}
		if err != nil || st != StatusUnsat {
			t.Fatalf("second Solve = %v, %v; want unsat", st, err)
		}
	})
	t.Run("stop-poll-cursor", func(t *testing.T) {
		// nextPoll used to carry over between calls; after a first call the
		// hook would not be polled again until the stale cursor was passed.
		// With the fix, every non-short-circuited call polls its Stop hook at
		// least once (a permanently-unsat instance returns before polling, so
		// use a satisfiable one).
		polls := 0
		s := NewSolver(Options{Stop: func() error { polls++; return nil }})
		vs := make([]Var, 50)
		for i := range vs {
			vs[i] = s.NewVar()
		}
		for i := 0; i+1 < len(vs); i++ {
			mustAdd(t, s, NegLit(vs[i]), PosLit(vs[i+1]))
		}
		if st, err := s.Solve(); err != nil || st != StatusSat {
			t.Fatalf("first Solve = %v, %v; want sat", st, err)
		}
		s.Backtrack()
		after := polls
		if st, err := s.SolveAssuming(PosLit(vs[0])); err != nil || st != StatusSat {
			t.Fatalf("second Solve = %v, %v; want sat", st, err)
		}
		s.Backtrack()
		if polls <= after {
			t.Fatalf("second Solve never polled the Stop hook (polls %d → %d)", after, polls)
		}
	})
}

// TestSolveAssumingAgainstFresh cross-checks assumption-based reuse against
// a fresh solver with the assumptions added as unit clauses, on random 3-SAT
// instances near the phase transition.
func TestSolveAssumingAgainstFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nVars, nClauses = 30, 120
	for round := 0; round < 30; round++ {
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		reused := NewSolver(Options{})
		for i := 0; i < nVars; i++ {
			reused.NewVar()
		}
		for _, cl := range clauses {
			mustAdd(t, reused, cl...)
		}
		for trial := 0; trial < 5; trial++ {
			assumps := make([]Lit, rng.Intn(4))
			for i := range assumps {
				assumps[i] = NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			}
			gotSt, err := reused.SolveAssuming(assumps...)
			if err != nil {
				t.Fatalf("round %d trial %d: SolveAssuming: %v", round, trial, err)
			}
			reused.Backtrack()

			fresh := NewSolver(Options{})
			for i := 0; i < nVars; i++ {
				fresh.NewVar()
			}
			for _, cl := range clauses {
				mustAdd(t, fresh, cl...)
			}
			for _, l := range assumps {
				mustAdd(t, fresh, l)
			}
			wantSt, err := fresh.Solve()
			if err != nil {
				t.Fatalf("round %d trial %d: fresh Solve: %v", round, trial, err)
			}
			if gotSt != wantSt {
				t.Fatalf("round %d trial %d: reused %v vs fresh %v under %v",
					round, trial, gotSt, wantSt, assumps)
			}
		}
	}
}

// TestResetPhases checks that ResetPhases clears saved phases back to the
// default (false) polarity. Phases are saved when Backtrack unwinds
// assignments made above level 0, so the test forces a positive assignment
// through propagation under a decision rather than a level-0 unit.
func TestResetPhases(t *testing.T) {
	s := NewSolver(Options{})
	vs := newVars(s, 2)
	x, y := vs[0], vs[1]
	// Default phase decides ¬x, then (x ∨ y) propagates y=true at level 1;
	// Backtrack saves y's positive phase.
	mustAdd(t, s, PosLit(x), PosLit(y))
	if st, err := s.Solve(); err != nil || st != StatusSat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
	s.Backtrack()
	if s.polarity[y] {
		t.Fatalf("var %v: positive phase not saved after backtrack", y)
	}
	s.ResetPhases()
	if !s.polarity[x] || !s.polarity[y] {
		t.Fatalf("ResetPhases did not restore the default phase (x=%v y=%v)",
			s.polarity[x], s.polarity[y])
	}
}
