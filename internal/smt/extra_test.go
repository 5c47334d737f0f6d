package smt

import (
	"errors"
	"math/big"
	"strings"
	"testing"
)

func TestLinExprOperations(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")

	e := NewLinExpr().TermInt(2, x).TermInt(3, y)
	if got := e.Coeff(x); got.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("Coeff(x) = %v", got)
	}
	e.TermInt(-2, x) // cancels x
	if !e.Coeff(x).IsInt() || e.Coeff(x).Sign() != 0 {
		t.Fatalf("cancelled coefficient nonzero")
	}
	if vars := e.Vars(); len(vars) != 1 || vars[0] != y {
		t.Fatalf("Vars = %v, want [y]", vars)
	}

	f := NewLinExpr().TermInt(1, x)
	f.AddExpr(rat(2, 1), e) // f = x + 6y
	if f.Coeff(y).Cmp(rat(6, 1)) != 0 {
		t.Fatalf("AddExpr wrong: %v", f)
	}

	clone := f.Clone()
	clone.TermInt(5, x)
	if f.Coeff(x).Cmp(rat(1, 1)) != 0 {
		t.Fatalf("Clone shares storage")
	}

	val := f.Eval(map[RealVar]*big.Rat{x: rat(1, 1), y: rat(1, 2)})
	if val.Cmp(rat(4, 1)) != 0 {
		t.Fatalf("Eval = %v, want 4", val)
	}

	if NewLinExpr().String() != "0" {
		t.Fatalf("empty expression String wrong")
	}
	if s := f.String(); !strings.Contains(s, "x0") || !strings.Contains(s, "6") {
		t.Fatalf("String = %q", s)
	}
	neg := NewLinExpr().TermInt(1, x).TermInt(-6, y)
	if s := neg.String(); !strings.Contains(s, " - ") {
		t.Fatalf("negative term rendering: %q", s)
	}
}

func TestNormalizeSharesOppositeScalings(t *testing.T) {
	// −x − y ≤ −4 is the same hyperplane as x + y ≥ 4; atoms must share a
	// slack and the solver must see the equivalence.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	negSum := NewLinExpr().TermInt(-1, x).TermInt(-1, y)
	posSum := NewLinExpr().TermInt(1, x).TermInt(1, y)
	s.Assert(LE(negSum, rat(-4, 1)))
	s.Assert(LT(posSum, rat(4, 1)))
	res := checkStatus(t, s, Unsat)
	if res.Stats.SlackVars != 1 {
		t.Fatalf("SlackVars = %d, want 1", res.Stats.SlackVars)
	}
}

func TestFormulaStrings(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	x := s.RealVar("x")
	f := And(B(a), Or(Not(B(a)), GE(NewLinExpr().TermInt(1, x), rat(2, 1))))
	str := f.String()
	for _, want := range []string{"b0", "∧", "∨", "¬", ">="} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
	if True().String() != "true" || False().String() != "false" {
		t.Fatalf("constant strings wrong")
	}
	if LT(NewLinExpr().TermInt(1, x), rat(0, 1)).String() == "" {
		t.Fatalf("atom string empty")
	}
}

func TestDoubleNegationCollapses(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	f := Not(Not(B(a)))
	if _, ok := f.(*boolF); !ok {
		t.Fatalf("double negation not collapsed: %T", f)
	}
	s.Assert(f)
	res := checkStatus(t, s, Sat)
	if !res.Bool(a) {
		t.Fatalf("a = false")
	}
}

func TestDeepScopes(t *testing.T) {
	s := NewSolver(DefaultOptions())
	vars := make([]BoolVar, 10)
	for i := range vars {
		vars[i] = s.BoolVar("v")
	}
	// Push ten scopes, each forcing one more variable true.
	for i, v := range vars {
		s.Push()
		s.Assert(B(v))
		if s.NumScopes() != i+2 {
			t.Fatalf("NumScopes = %d", s.NumScopes())
		}
	}
	res := checkStatus(t, s, Sat)
	for _, v := range vars {
		if !res.Bool(v) {
			t.Fatalf("scoped assertion lost")
		}
	}
	// Pop half; only the outer assertions must remain forced.
	for i := 0; i < 5; i++ {
		if err := s.Pop(); err != nil {
			t.Fatalf("Pop: %v", err)
		}
	}
	s.Assert(Not(B(vars[9]))) // now consistent
	checkStatus(t, s, Sat)
}

func TestXorViaIff(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	b := s.BoolVar("b")
	s.Assert(Not(Iff(B(a), B(b)))) // a xor b
	res := checkStatus(t, s, Sat)
	if res.Bool(a) == res.Bool(b) {
		t.Fatalf("xor violated: a=%v b=%v", res.Bool(a), res.Bool(b))
	}
}

func TestNamesAndCounts(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("alpha")
	x := s.RealVar("xray")
	if s.BoolName(a) != "alpha" || s.RealName(x) != "xray" {
		t.Fatalf("names wrong")
	}
	if s.NumBoolVars() != 1 {
		t.Fatalf("NumBoolVars = %d", s.NumBoolVars())
	}
}

func TestAtLeastOverConstantFormulas(t *testing.T) {
	s := NewSolver(DefaultOptions())
	s.AssertAtLeastK([]Formula{True(), False(), False()}, 2)
	checkStatus(t, s, Unsat)

	s2 := NewSolver(DefaultOptions())
	s2.AssertAtLeastK([]Formula{True(), False(), True()}, 2)
	checkStatus(t, s2, Sat)
}

func TestAtMostZeroAndNegative(t *testing.T) {
	s := NewSolver(DefaultOptions())
	a := s.BoolVar("a")
	s.AssertAtMostK([]Formula{B(a)}, 0)
	res := checkStatus(t, s, Sat)
	if res.Bool(a) {
		t.Fatalf("at-most-0 violated")
	}
	s2 := NewSolver(DefaultOptions())
	b := s2.BoolVar("b")
	s2.AssertAtMostK([]Formula{B(b)}, -1)
	checkStatus(t, s2, Unsat)
}

func TestMaxConflictsBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Budget.MaxConflicts = 1
	s := NewSolver(opts)
	// Pigeonhole 4→3: needs more than one conflict.
	const holes = 3
	vars := make([][]BoolVar, holes+1)
	for p := range vars {
		vars[p] = make([]BoolVar, holes)
		for h := range vars[p] {
			vars[p][h] = s.BoolVar("v")
		}
	}
	for p := 0; p <= holes; p++ {
		fs := make([]Formula, holes)
		for h := 0; h < holes; h++ {
			fs[h] = B(vars[p][h])
		}
		s.Assert(Or(fs...))
	}
	for h := 0; h < holes; h++ {
		fs := make([]Formula, holes+1)
		for p := 0; p <= holes; p++ {
			fs[p] = B(vars[p][h])
		}
		s.AssertAtMostK(fs, 1)
	}
	res, err := s.Check()
	if err != nil {
		t.Fatalf("budget exhaustion must not be an error, got %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("budget not enforced; status %v", res.Status)
	}
	var be *BudgetError
	if !errors.As(res.Why, &be) || be.Resource != ResourceConflicts {
		t.Fatalf("Why = %v, want conflicts BudgetError", res.Why)
	}
	if res.Stats.Conflicts < 1 || res.Stats.Clauses == 0 {
		t.Fatalf("partial stats not populated: %+v", res.Stats)
	}
}

func TestRationalCoefficients(t *testing.T) {
	// (1/3)x + (1/6)y = 1 with x = y forces x = 2.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	e := NewLinExpr().Term(rat(1, 3), x).Term(rat(1, 6), y)
	s.Assert(Eq(e, rat(1, 1)))
	s.Assert(EqZero(NewLinExpr().TermInt(1, x).TermInt(-1, y)))
	res := checkStatus(t, s, Sat)
	if res.Real(x).Cmp(rat(2, 1)) != 0 {
		t.Fatalf("x = %v, want 2", res.Real(x))
	}
}

func TestLargeCoefficientsExact(t *testing.T) {
	// Exact arithmetic: no drift with large magnitudes. 10^12·x ≥ 1 and
	// x ≤ 10^-12 − tiny is unsat only with exact rationals.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	big1 := new(big.Rat).SetInt64(1_000_000_000_000)
	e := NewLinExpr().Term(big1, x)
	s.Assert(GE(e, rat(1, 1)))
	tiny := new(big.Rat).SetFrac64(1, 1_000_000_000_000)
	tiny.Sub(tiny, new(big.Rat).SetFrac64(1, 1_000_000_000_000_000))
	s.Assert(LE(NewLinExpr().TermInt(1, x), tiny))
	checkStatus(t, s, Unsat)
}
