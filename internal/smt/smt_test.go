package smt

import (
	"math/big"
	"math/rand"
	"testing"
)

func rat(n, d int64) *big.Rat { return big.NewRat(n, d) }

func checkStatus(t *testing.T, s *Solver, want Status) *Result {
	t.Helper()
	res, err := s.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Status != want {
		t.Fatalf("Check status = %v, want %v", res.Status, want)
	}
	return res
}

func TestPureBooleanSat(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	b := s.BoolVar("b")
	s.Assert(Or(B(a), B(b)))
	s.Assert(Not(B(a)))
	res := checkStatus(t, s, Sat)
	if res.Bool(a) || !res.Bool(b) {
		t.Fatalf("model a=%v b=%v, want a=false b=true", res.Bool(a), res.Bool(b))
	}
}

func TestPureBooleanUnsat(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	s.Assert(B(a))
	s.Assert(Not(B(a)))
	checkStatus(t, s, Unsat)

	// Pigeonhole 8→7 with one at-most-one cardinality per hole: the
	// propositional stress instance of BenchmarkSMTSolver.
	s = NewSolver(DefaultOptions())
	const holes = 7
	vars := make([][]BoolVar, holes+1)
	for p := range vars {
		vars[p] = make([]BoolVar, holes)
		fs := make([]Formula, holes)
		for h := range vars[p] {
			vars[p][h] = s.BoolVar("v")
			fs[h] = B(vars[p][h])
		}
		s.Assert(Or(fs...))
	}
	for h := 0; h < holes; h++ {
		fs := make([]Formula, holes+1)
		for p := range fs {
			fs[p] = B(vars[p][h])
		}
		s.AssertAtMostK(fs, 1)
	}
	checkStatus(t, s, Unsat)
}

func TestConstantFolding(t *testing.T) {
	s := NewSolver(DefaultOptions())
	s.Assert(True())
	checkStatus(t, s, Sat)
	s.Assert(False())
	checkStatus(t, s, Unsat)
}

func TestEmptyAtomFolds(t *testing.T) {
	// 0 ≤ 1 is true; 0 > 1 is false.
	if _, ok := LE(NewLinExpr(), rat(1, 1)).(*constF); !ok {
		t.Fatalf("LE on empty expr did not fold")
	}
	s := NewSolver(DefaultOptions())
	s.Assert(GT(NewLinExpr(), rat(1, 1)))
	checkStatus(t, s, Unsat)
}

func TestLinearArithmeticSat(t *testing.T) {
	// x + y ≤ 4, x ≥ 1, y ≥ 2 is satisfiable; check model.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	sum := NewLinExpr().TermInt(1, x).TermInt(1, y)
	s.Assert(LE(sum, rat(4, 1)))
	s.Assert(GE(NewLinExpr().TermInt(1, x), rat(1, 1)))
	s.Assert(GE(NewLinExpr().TermInt(1, y), rat(2, 1)))
	res := checkStatus(t, s, Sat)
	xv, yv := res.Real(x), res.Real(y)
	total := new(big.Rat).Add(xv, yv)
	if total.Cmp(rat(4, 1)) > 0 || xv.Cmp(rat(1, 1)) < 0 || yv.Cmp(rat(2, 1)) < 0 {
		t.Fatalf("model x=%v y=%v violates constraints", xv, yv)
	}
}

func TestLinearArithmeticUnsat(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	sum := NewLinExpr().TermInt(1, x).TermInt(1, y)
	s.Assert(GE(sum, rat(10, 1)))
	s.Assert(LE(NewLinExpr().TermInt(1, x), rat(2, 1)))
	s.Assert(LE(NewLinExpr().TermInt(1, y), rat(3, 1)))
	checkStatus(t, s, Unsat)

	// A 200-link difference chain, x199 ≥ x0 + 199 against x0 ≥ 0 and
	// x199 ≤ 100: the arithmetic stress instance of BenchmarkSMTSolver.
	s = NewSolver(DefaultOptions())
	prev := s.RealVar("x0")
	s.Assert(GE(NewLinExpr().TermInt(1, prev), rat(0, 1)))
	for k := 1; k < 200; k++ {
		cur := s.RealVar("x")
		s.Assert(GE(NewLinExpr().TermInt(1, cur).TermInt(-1, prev), rat(1, 1)))
		prev = cur
	}
	s.Assert(LE(NewLinExpr().TermInt(1, prev), rat(100, 1)))
	checkStatus(t, s, Unsat)
}

func TestStrictVsNonStrict(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	ex := NewLinExpr().TermInt(1, x)
	s.Assert(GE(ex, rat(3, 1)))
	s.Assert(LE(ex, rat(3, 1)))
	res := checkStatus(t, s, Sat)
	if res.Real(x).Cmp(rat(3, 1)) != 0 {
		t.Fatalf("x = %v, want 3", res.Real(x))
	}

	s2 := NewSolver(DefaultOptions())
	x2 := s2.RealVar("x")
	ex2 := NewLinExpr().TermInt(1, x2)
	s2.Assert(GE(ex2, rat(3, 1)))
	s2.Assert(LT(ex2, rat(3, 1)))
	checkStatus(t, s2, Unsat)
}

func TestNeqSplits(t *testing.T) {
	// x = y, x ≠ y is unsat; x ≠ 0 alone gives a nonzero model.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	diff := NewLinExpr().TermInt(1, x).TermInt(-1, y)
	s.Assert(EqZero(diff))
	s.Assert(NeqZero(diff))
	checkStatus(t, s, Unsat)

	s2 := NewSolver(DefaultOptions())
	x2 := s2.RealVar("x")
	s2.Assert(NeqZero(NewLinExpr().TermInt(1, x2)))
	res := checkStatus(t, s2, Sat)
	if res.Real(x2).Sign() == 0 {
		t.Fatalf("x = 0 violates x ≠ 0")
	}
}

func TestBoolArithmeticCoupling(t *testing.T) {
	// p ↔ (x ≥ 5); ¬p; x ≥ 5 would be contradictory, x must be < 5.
	s := NewSolver(DefaultOptions())
	p := s.BoolVar("p")
	x := s.RealVar("x")
	ex := NewLinExpr().TermInt(1, x)
	s.Assert(Iff(B(p), GE(ex, rat(5, 1))))
	s.Assert(Not(B(p)))
	res := checkStatus(t, s, Sat)
	if res.Real(x).Cmp(rat(5, 1)) >= 0 {
		t.Fatalf("x = %v, want < 5", res.Real(x))
	}
}

func TestImplicationChainToTheory(t *testing.T) {
	// a → (x ≥ 1), b → (x ≤ 0), a ∧ b is unsat; dropping b is sat.
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	b := s.BoolVar("b")
	x := s.RealVar("x")
	ex := NewLinExpr().TermInt(1, x)
	s.Assert(Implies(B(a), GE(ex, rat(1, 1))))
	s.Assert(Implies(B(b), LE(ex, rat(0, 1))))
	s.Assert(B(a))
	s.Push()
	s.Assert(B(b))
	checkStatus(t, s, Unsat)
	if err := s.Pop(); err != nil {
		t.Fatalf("Pop: %v", err)
	}
	res := checkStatus(t, s, Sat)
	if !res.Bool(a) {
		t.Fatalf("a must be true")
	}
	if res.Real(x).Cmp(rat(1, 1)) < 0 {
		t.Fatalf("x = %v, want ≥ 1", res.Real(x))
	}
}

func TestPopBaseScopeFails(t *testing.T) {
	s := NewSolver(DefaultOptions())
	if err := s.Pop(); err == nil {
		t.Fatalf("Pop on base scope succeeded, want error")
	}
}

func TestSharedSlackAcrossAtoms(t *testing.T) {
	// Atoms over 2x+2y and x+y must share one hyperplane slack.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	e1 := NewLinExpr().TermInt(2, x).TermInt(2, y)
	e2 := NewLinExpr().TermInt(1, x).TermInt(1, y)
	s.Assert(GE(e1, rat(10, 1))) // x + y ≥ 5
	s.Assert(LE(e2, rat(4, 1)))  // x + y ≤ 4
	checkStatus(t, s, Unsat)
	if st := s.LastStats(); st.SlackVars != 1 {
		t.Fatalf("SlackVars = %d, want 1 (canonicalization should share)", st.SlackVars)
	}
}

func TestAtMostK(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for k := 0; k <= n; k++ {
			for forced := 0; forced <= n; forced++ {
				s := NewSolver(DefaultOptions())
				vars := make([]BoolVar, n)
				fs := make([]Formula, n)
				for i := range vars {
					vars[i] = s.BoolVar("v")
					fs[i] = B(vars[i])
				}
				for i := 0; i < forced; i++ {
					s.Assert(B(vars[i]))
				}
				s.AssertAtMostK(fs, k)
				want := Sat
				if forced > k {
					want = Unsat
				}
				res, err := s.Check()
				if err != nil {
					t.Fatalf("Check: %v", err)
				}
				if res.Status != want {
					t.Fatalf("n=%d k=%d forced=%d: status %v, want %v",
						n, k, forced, res.Status, want)
				}
				if res.Status == Sat {
					count := 0
					for _, v := range vars {
						if res.Bool(v) {
							count++
						}
					}
					if count > k {
						t.Fatalf("model sets %d > k=%d vars", count, k)
					}
				}
			}
		}
	}
}

func TestAtLeastK(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for k := 0; k <= n+1; k++ {
			s := NewSolver(DefaultOptions())
			vars := make([]BoolVar, n)
			fs := make([]Formula, n)
			for i := range vars {
				vars[i] = s.BoolVar("v")
				fs[i] = B(vars[i])
			}
			s.AssertAtLeastK(fs, k)
			want := Sat
			if k > n {
				want = Unsat
			}
			res, err := s.Check()
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Status != want {
				t.Fatalf("n=%d k=%d: status %v, want %v", n, k, res.Status, want)
			}
			if res.Status == Sat {
				count := 0
				for _, v := range vars {
					if res.Bool(v) {
						count++
					}
				}
				if count < k {
					t.Fatalf("model sets %d < k=%d vars", count, k)
				}
			}
		}
	}
}

func TestAtMostKOverAtoms(t *testing.T) {
	// At most 1 of {x≥1, y≥1, z≥1}, with x+y+z ≥ 2 and all ≤ 1 → unsat:
	// two variables would need to reach ≥ 1.
	s := NewSolver(DefaultOptions())
	vs := []RealVar{s.RealVar("x"), s.RealVar("y"), s.RealVar("z")}
	atoms := make([]Formula, 3)
	sum := NewLinExpr()
	for i, v := range vs {
		ev := NewLinExpr().TermInt(1, v)
		atoms[i] = GE(ev, rat(1, 1))
		s.Assert(LE(ev, rat(1, 1)))
		s.Assert(GE(ev, rat(0, 1)))
		sum.TermInt(1, v)
	}
	s.AssertAtMostK(atoms, 1)
	s.Push()
	s.Assert(GE(sum, rat(2, 1)))
	// x+y+z ≥ 2 with each in [0,1]: at least two must be ≥ 1... not quite —
	// e.g. 1 + 0.5 + 0.5 works with only one atom true. So this is SAT.
	res := checkStatus(t, s, Sat)
	total := new(big.Rat)
	for _, v := range vs {
		total.Add(total, res.Real(v))
	}
	if total.Cmp(rat(2, 1)) < 0 {
		t.Fatalf("sum %v < 2", total)
	}
	if err := s.Pop(); err != nil {
		t.Fatalf("Pop: %v", err)
	}
	// Now force sum ≥ 5/2: with each ≤ 1, at least two vars must be ≥ 3/4,
	// and with at most one atom (≥1) true, max total = 1 + 1⁻ + 1⁻ < 3 — still
	// satisfiable (e.g. 1, 0.9, 0.9 has only one atom true). Force exactly:
	// each var ∈ {0} ∪ [1,1] by adding (v ≤ 0 ∨ v ≥ 1): then sum ≥ 2 needs
	// two atoms true → unsat.
	for _, v := range vs {
		ev := NewLinExpr().TermInt(1, v)
		s.Assert(Or(LE(ev, rat(0, 1)), GE(ev, rat(1, 1))))
	}
	s.Assert(GE(sum, rat(2, 1)))
	checkStatus(t, s, Unsat)
}

func TestModelTotality(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("unconstrained")
	s.Assert(GE(NewLinExpr().TermInt(1, x), rat(2, 1)))
	res := checkStatus(t, s, Sat)
	if res.Real(y) == nil {
		t.Fatalf("unconstrained variable missing from model")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	s.Assert(GE(NewLinExpr().TermInt(1, x), rat(1, 1)))
	res := checkStatus(t, s, Sat)
	if res.Stats.RealVars != 1 || res.Stats.BoolVars == 0 || res.Stats.Duration <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

// TestStatsAllocBytes checks that a check which allocates reports it: the
// encoding and simplex of a 200-variable chain x_i ≥ x_{i-1} + 1 allocate
// far more than the per-P allocation caches the counter may lag by.
func TestStatsAllocBytes(t *testing.T) {
	s := NewSolver(DefaultOptions())
	prev := s.RealVar("x0")
	for i := 1; i < 200; i++ {
		x := s.RealVar("x")
		s.Assert(GE(NewLinExpr().TermInt(1, x).TermInt(-1, prev), rat(1, 1)))
		prev = x
	}
	res := checkStatus(t, s, Sat)
	if res.Stats.AllocBytes == 0 {
		t.Fatalf("AllocBytes = 0 after a check that allocates: %+v", res.Stats)
	}
}

func TestUnknownBoolVarRejected(t *testing.T) {
	s := NewSolver(DefaultOptions())
	s.Assert(B(BoolVar(99)))
	if _, err := s.Check(); err == nil {
		t.Fatalf("Check with unknown bool var succeeded, want error")
	}
}

func TestUnknownRealVarRejected(t *testing.T) {
	s := NewSolver(DefaultOptions())
	s.Assert(GE(NewLinExpr().TermInt(1, RealVar(42)), rat(0, 1)))
	if _, err := s.Check(); err == nil {
		t.Fatalf("Check with unknown real var succeeded, want error")
	}
}

// --- randomized equisatisfiability fuzz -------------------------------

// randFormula builds a random formula over nb bool vars and atoms over nr
// real vars with small integer coefficients.
func randFormula(rng *rand.Rand, s *Solver, bools []BoolVar, reals []RealVar, depth int) Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			f := B(bools[rng.Intn(len(bools))])
			if rng.Intn(2) == 0 {
				f = Not(f)
			}
			return f
		}
		e := NewLinExpr()
		for _, v := range reals {
			c := int64(rng.Intn(5)) - 2
			if c != 0 {
				e.TermInt(c, v)
			}
		}
		rhs := rat(int64(rng.Intn(9))-4, 1)
		switch rng.Intn(4) {
		case 0:
			return LE(e, rhs)
		case 1:
			return GE(e, rhs)
		case 2:
			return LT(e, rhs)
		default:
			return GT(e, rhs)
		}
	}
	n := 2 + rng.Intn(2)
	fs := make([]Formula, n)
	for i := range fs {
		fs[i] = randFormula(rng, s, bools, reals, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return And(fs...)
	case 1:
		return Or(fs...)
	default:
		return Not(Or(fs...))
	}
}

// evalFormula evaluates a formula under a full assignment.
func evalFormula(f Formula, bv map[BoolVar]bool, rv map[RealVar]*big.Rat) bool {
	switch g := f.(type) {
	case *constF:
		return g.val
	case *boolF:
		return bv[g.v]
	case *notF:
		return !evalFormula(g.f, bv, rv)
	case *andF:
		for _, c := range g.fs {
			if !evalFormula(c, bv, rv) {
				return false
			}
		}
		return true
	case *orF:
		for _, c := range g.fs {
			if evalFormula(c, bv, rv) {
				return true
			}
		}
		return false
	case *atomF:
		val := g.expr.Eval(rv)
		cmp := val.Cmp(g.rhs)
		switch g.op {
		case opLE:
			return cmp <= 0
		case opLT:
			return cmp < 0
		case opGE:
			return cmp >= 0
		default:
			return cmp > 0
		}
	}
	return false
}

// TestRandomMixedFormulasModelsValid checks that on SAT answers the model
// satisfies every asserted formula exactly.
func TestRandomMixedFormulasModelsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	satCount := 0
	for trial := 0; trial < 150; trial++ {
		s := NewSolver(DefaultOptions())
		bools := []BoolVar{s.BoolVar("a"), s.BoolVar("b"), s.BoolVar("c")}
		reals := []RealVar{s.RealVar("x"), s.RealVar("y")}
		var asserted []Formula
		for i := 0; i < 2+rng.Intn(4); i++ {
			f := randFormula(rng, s, bools, reals, 3)
			asserted = append(asserted, f)
			s.Assert(f)
		}
		res, err := s.Check()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != Sat {
			continue
		}
		satCount++
		bv := map[BoolVar]bool{}
		for _, b := range bools {
			bv[b] = res.Bool(b)
		}
		rv := map[RealVar]*big.Rat{}
		for _, r := range reals {
			rv[r] = res.Real(r)
		}
		for i, f := range asserted {
			if !evalFormula(f, bv, rv) {
				t.Fatalf("trial %d: model violates assertion %d: %v", trial, i, f)
			}
		}
	}
	if satCount == 0 {
		t.Fatalf("no satisfiable instances generated; fuzz ineffective")
	}
}

// TestRandomBooleanEquisat compares SMT answers on pure Boolean formulas
// against brute-force enumeration.
func TestRandomBooleanEquisat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := NewSolver(DefaultOptions())
		nb := 3 + rng.Intn(3)
		bools := make([]BoolVar, nb)
		for i := range bools {
			bools[i] = s.BoolVar("b")
		}
		var asserted []Formula
		for i := 0; i < 1+rng.Intn(4); i++ {
			f := randFormula(rng, s, bools, nil, 3)
			asserted = append(asserted, f)
			s.Assert(f)
		}
		res, err := s.Check()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force.
		want := false
		for mask := 0; mask < 1<<nb; mask++ {
			bv := map[BoolVar]bool{}
			for i, b := range bools {
				bv[b] = mask>>uint(i)&1 == 1
			}
			all := true
			for _, f := range asserted {
				if !evalFormula(f, bv, nil) {
					all = false
					break
				}
			}
			if all {
				want = true
				break
			}
		}
		if (res.Status == Sat) != want {
			t.Fatalf("trial %d: got %v, brute force sat=%v", trial, res.Status, want)
		}
	}
}
