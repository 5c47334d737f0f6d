package cnf

import (
	"math/bits"
	"reflect"
	"testing"

	"segrid/internal/sat"
)

func lit(v int, neg bool) sat.Lit {
	if neg {
		return sat.NegLit(sat.Var(v))
	}
	return sat.PosLit(sat.Var(v))
}

func TestGateClausesShapes(t *testing.T) {
	out := lit(9, false)
	a, b, c := lit(1, false), lit(2, true), lit(3, false)

	got := GateClauses(nil, GateTrue, out, nil)
	want := [][]sat.Lit{{out}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GateTrue: got %v want %v", got, want)
	}

	got = GateClauses(nil, GateAnd, out, []sat.Lit{a, b, c})
	want = [][]sat.Lit{
		{out.Not(), a}, {out.Not(), b}, {out.Not(), c},
		{out, a.Not(), b.Not(), c.Not()},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GateAnd: got %v want %v", got, want)
	}

	got = GateClauses(nil, GateOr, out, []sat.Lit{a, b})
	want = [][]sat.Lit{
		{out, a.Not()}, {out, b.Not()},
		{out.Not(), a, b},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GateOr: got %v want %v", got, want)
	}

	for _, g := range []Gate{GateTrue, GateAnd, GateOr} {
		n := 3
		if g == GateTrue {
			n = 0
		}
		in := []sat.Lit{a, b, c}[:n]
		if got, want := len(GateClauses(nil, g, out, in)), GateClauseCount(g, n); got != want {
			t.Errorf("%v: %d clauses, GateClauseCount says %d", g, got, want)
		}
	}
	if Gate(99).Valid() {
		t.Error("Gate(99) reported valid")
	}
}

// gateEval evaluates the gate semantics directly.
func gateEval(g Gate, inputs []bool) bool {
	switch g {
	case GateTrue:
		return true
	case GateAnd:
		for _, v := range inputs {
			if !v {
				return false
			}
		}
		return true
	case GateOr:
		for _, v := range inputs {
			if v {
				return true
			}
		}
		return false
	}
	panic("bad gate")
}

// TestGateClausesSemantics brute-forces every input assignment and checks the
// clause set is satisfied exactly when out equals the gate's value.
func TestGateClausesSemantics(t *testing.T) {
	for _, g := range []Gate{GateAnd, GateOr} {
		for n := 1; n <= 4; n++ {
			inputs := make([]sat.Lit, n)
			for i := range inputs {
				inputs[i] = lit(i, i%2 == 1) // mix polarities
			}
			out := lit(n, false)
			clauses := GateClauses(nil, g, out, inputs)
			for m := 0; m < 1<<(n+1); m++ {
				val := func(l sat.Lit) bool {
					v := m>>int(l.Var())&1 == 1
					if l.IsNeg() {
						return !v
					}
					return v
				}
				inVals := make([]bool, n)
				for i, in := range inputs {
					inVals[i] = val(in)
				}
				wantSat := val(out) == gateEval(g, inVals)
				gotSat := true
				for _, cl := range clauses {
					cSat := false
					for _, l := range cl {
						if val(l) {
							cSat = true
							break
						}
					}
					if !cSat {
						gotSat = false
						break
					}
				}
				if gotSat != wantSat {
					t.Fatalf("%v n=%d assignment %b: clauses satisfied=%v, equivalence holds=%v", g, n, m, gotSat, wantSat)
				}
			}
		}
	}
}

func TestAtMostKDegenerate(t *testing.T) {
	lits := []sat.Lit{lit(0, false), lit(1, false), lit(2, false)}
	guard := lit(7, true)

	if got := AtMostK(nil, lits, 3, 10, sat.LitUndef); len(got) != 0 {
		t.Errorf("k>=n: got %d clauses, want 0", len(got))
	}
	got := AtMostK(nil, lits, -1, 10, guard)
	if !reflect.DeepEqual(got, [][]sat.Lit{{guard}}) {
		t.Errorf("k<0 guarded: got %v", got)
	}
	got = AtMostK(nil, lits, -1, 10, sat.LitUndef)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("k<0 unguarded: got %v, want one empty clause", got)
	}
	got = AtMostK(nil, lits, 0, 10, guard)
	want := [][]sat.Lit{
		{lits[0].Not(), guard}, {lits[1].Not(), guard}, {lits[2].Not(), guard},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("k==0: got %v want %v", got, want)
	}
}

// satisfiable reports whether the clause set has a satisfying assignment over
// variables [0, nVars) by brute force.
func satisfiable(clauses [][]sat.Lit, nVars int, fixed map[sat.Var]bool) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for v, want := range fixed {
			if m>>int(v)&1 == 1 != want {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		allSat := true
		for _, cl := range clauses {
			cSat := false
			for _, l := range cl {
				v := m>>int(l.Var())&1 == 1
				if l.IsNeg() {
					v = !v
				}
				if v {
					cSat = true
					break
				}
			}
			if !cSat {
				allSat = false
				break
			}
		}
		if allSat {
			return true
		}
	}
	return false
}

// TestAtMostKSemantics checks the encoding enforces exactly Σ lits ≤ k: for
// every input assignment, the circuit (with registers existentially
// quantified) is satisfiable iff at most k inputs are true.
func TestAtMostKSemantics(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for k := 0; k < n; k++ {
			inputs := make([]sat.Lit, n)
			for i := range inputs {
				inputs[i] = lit(i, false)
			}
			firstFresh := sat.Var(n)
			fresh := CardFreshVars(n, k)
			clauses := AtMostK(nil, inputs, k, firstFresh, sat.LitUndef)
			if cnt, ok := CardClauseCount(n, k, 1<<20); !ok || cnt != len(clauses) {
				t.Fatalf("n=%d k=%d: CardClauseCount=%d ok=%v, actual %d", n, k, cnt, ok, len(clauses))
			}
			maxVar := sat.Var(n - 1)
			for _, cl := range clauses {
				for _, l := range cl {
					if l.Var() > maxVar {
						maxVar = l.Var()
					}
				}
			}
			if int(maxVar) >= n+fresh {
				t.Fatalf("n=%d k=%d: clause uses var %d beyond the %d declared fresh vars", n, k, maxVar, fresh)
			}
			for m := 0; m < 1<<n; m++ {
				fixed := make(map[sat.Var]bool, n)
				for i := 0; i < n; i++ {
					fixed[sat.Var(i)] = m>>i&1 == 1
				}
				wantSat := bits.OnesCount(uint(m)) <= k
				if got := satisfiable(clauses, n+fresh, fixed); got != wantSat {
					t.Fatalf("n=%d k=%d inputs=%b: satisfiable=%v want %v", n, k, m, got, wantSat)
				}
			}
		}
	}
}

// TestAtMostKGuard checks the guard literal is appended to every clause and
// that setting the guard false satisfies the whole circuit.
func TestAtMostKGuard(t *testing.T) {
	inputs := []sat.Lit{lit(0, false), lit(1, false), lit(2, false)}
	guard := lit(8, true) // ¬selector
	clauses := AtMostK(nil, inputs, 1, 3, guard)
	for i, cl := range clauses {
		if len(cl) == 0 || cl[len(cl)-1] != guard {
			t.Fatalf("clause %d = %v does not end with guard %v", i, cl, guard)
		}
	}
	unguarded := AtMostK(nil, inputs, 1, 3, sat.LitUndef)
	if len(unguarded) != len(clauses) {
		t.Fatalf("guarded %d vs unguarded %d clauses", len(clauses), len(unguarded))
	}
	for i := range unguarded {
		if !reflect.DeepEqual(unguarded[i], clauses[i][:len(clauses[i])-1]) {
			t.Fatalf("clause %d: guarded %v vs unguarded %v", i, clauses[i], unguarded[i])
		}
	}
}

func TestCardClauseCountLimit(t *testing.T) {
	if c, ok := CardClauseCount(10, 3, 1<<24); !ok || c != 3+8*7+1 {
		t.Errorf("seqcounter count: got %d ok=%v, want 60", c, ok)
	}
	if _, ok := CardClauseCount(1<<23, 1<<23-1, 1<<24); ok {
		t.Error("huge seqcounter fit under limit?")
	}
}

// TestArenaMatchesAllocatingDerivation pins the equivalence contract: the
// arena path must produce exactly the clauses of the package-level functions,
// in the same order, across gate shapes, degenerate bounds and guards.
func TestArenaMatchesAllocatingDerivation(t *testing.T) {
	inputs := []sat.Lit{lit(0, false), lit(1, true), lit(2, false), lit(3, true)}
	var a Arena
	for _, g := range []Gate{GateTrue, GateAnd, GateOr} {
		for n := 0; n <= len(inputs); n++ {
			ins := inputs[:n]
			if g == GateTrue {
				ins = nil
			}
			want := GateClauses(nil, g, lit(7, false), ins)
			got := a.GateClauses(g, lit(7, false), ins)
			if !reflect.DeepEqual(copyClauses(got), want) {
				t.Fatalf("%v over %d inputs: arena %v vs alloc %v", g, n, got, want)
			}
		}
	}
	for _, guard := range []sat.Lit{sat.LitUndef, lit(9, true)} {
		for k := -1; k <= len(inputs); k++ {
			want := AtMostK(nil, inputs, k, 20, guard)
			got := a.AtMostK(inputs, k, 20, guard)
			if !reflect.DeepEqual(copyClauses(got), want) {
				t.Fatalf("k=%d guard=%v: arena %v vs alloc %v", k, guard, got, want)
			}
		}
	}
}

func copyClauses(src [][]sat.Lit) [][]sat.Lit {
	var dst [][]sat.Lit
	for _, cl := range src {
		dst = append(dst, append([]sat.Lit(nil), cl...))
	}
	return dst
}

// TestArenaSteadyStateAllocs pins the point of the arena: once its buffers
// have grown to fit a derivation, repeating it allocates nothing.
func TestArenaSteadyStateAllocs(t *testing.T) {
	inputs := []sat.Lit{lit(0, false), lit(1, false), lit(2, false), lit(3, false), lit(4, false)}
	var a Arena
	a.AtMostK(inputs, 2, 20, lit(9, true))
	a.GateClauses(GateAnd, lit(7, false), inputs)
	if avg := testing.AllocsPerRun(50, func() {
		a.AtMostK(inputs, 2, 20, lit(9, true))
		a.GateClauses(GateAnd, lit(7, false), inputs)
	}); avg != 0 {
		t.Errorf("steady-state derivation allocates %.1f times per run, want 0", avg)
	}
}
