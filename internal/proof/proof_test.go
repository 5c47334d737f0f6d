package proof

import (
	"bytes"
	"strings"
	"testing"

	"segrid/internal/numeric"
	"segrid/internal/sat"
)

func q(n int64) numeric.Q { return numeric.QFromInt(n) }

func dlt(std, inf int64) numeric.Delta {
	return numeric.NewDeltaQ(q(std), q(inf))
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Kind: KindRestart},
		{Kind: KindSlackDef, Var: 2, Terms: []Term{{Var: 0, Coeff: q(1)}, {Var: 1, Coeff: numeric.QFromFrac(-7, 3)}}},
		{Kind: KindAtomDef, Var: 5, Slack: 2, Pos: dlt(3, 0), Neg: dlt(3, 1)},
		{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(0), sat.NegLit(1)}},
		{Kind: KindDerived, ID: 2, Lits: []sat.Lit{sat.NegLit(0)}},
		{Kind: KindTheoryLemma, ID: 3, Lits: []sat.Lit{sat.PosLit(5), sat.NegLit(6)}, Coeffs: []numeric.Q{q(1), numeric.QFromFrac(5, 2)}},
		{Kind: KindDelete, ID: 2},
		{Kind: KindUnsat, Check: 1, Lits: []sat.Lit{sat.PosLit(9)}},
		{Kind: KindUnsat, Check: 2},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-trip length: got %d, want %d", len(got), len(recs))
	}
	for i, g := range got {
		w := recs[i]
		if g.Kind != w.Kind || g.ID != w.ID || g.Var != w.Var || g.Slack != w.Slack || g.Check != w.Check {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
		if len(g.Lits) != len(w.Lits) {
			t.Errorf("record %d: lits %v, want %v", i, g.Lits, w.Lits)
			continue
		}
		for j := range g.Lits {
			if g.Lits[j] != w.Lits[j] {
				t.Errorf("record %d lit %d: got %v, want %v", i, j, g.Lits[j], w.Lits[j])
			}
		}
		for j := range g.Coeffs {
			if g.Coeffs[j].Cmp(w.Coeffs[j]) != 0 {
				t.Errorf("record %d coeff %d: got %v, want %v", i, j, g.Coeffs[j], w.Coeffs[j])
			}
		}
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE!\n")); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Record{{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(0), sat.PosLit(1)}}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadAll(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// pigeonProof writes the four binary clauses forcing x ↔ ¬y and y ↔ ¬x
// simultaneously — a minimal propositional UNSAT — through the Writer the
// way the solver would: inputs, a learnt unit, and a final check.
func pigeonProof(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x, y := sat.PosLit(0), sat.PosLit(1)
	w.LogInput([]sat.Lit{x, y})
	w.LogInput([]sat.Lit{x.Not(), y})
	w.LogInput([]sat.Lit{x, y.Not()})
	w.LogInput([]sat.Lit{x.Not(), y.Not()})
	w.LogLearnt([]sat.Lit{y})
	if got := w.EndUnsat(nil); got != 1 {
		t.Fatalf("EndUnsat index: got %d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return &buf
}

func TestCheckAcceptsPropositionalProof(t *testing.T) {
	buf := pigeonProof(t)
	rep, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Inputs != 4 || rep.Derived != 1 || rep.UnsatChecks != 1 {
		t.Fatalf("unexpected report: %v", rep)
	}
}

func TestCheckRejectsCorruptedLiteral(t *testing.T) {
	buf := pigeonProof(t)
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == KindDerived {
			// The learnt unit y becomes a unit over a fresh variable,
			// which no propagation derives.
			rec.Lits[0] = sat.PosLit(7)
		}
	}
	var mutated bytes.Buffer
	if err := WriteAll(&mutated, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(mutated.Bytes())); err == nil {
		t.Fatal("checker accepted a corrupted derivation")
	}
}

func TestCheckRejectsNonRUPDerivation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x, y := sat.PosLit(0), sat.PosLit(1)
	w.LogInput([]sat.Lit{x, y})
	// (¬y ∨ x) does not follow from (x ∨ y): it is not RUP.
	w.LogLearnt([]sat.Lit{y.Not(), x})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted an underivable clause")
	}
}

// TestCheckRejectsRATOnlyDerivation: a unit over a fresh variable is a
// blocked clause — RAT, vacuously, since no clause mentions its negation —
// but not RUP. The solver never learns such a clause, so the checker has no
// RAT fallback and must reject it.
func TestCheckRejectsRATOnlyDerivation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x, y, z := sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)
	w.LogInput([]sat.Lit{x, y})
	w.LogLearnt([]sat.Lit{z})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "not RUP") {
		t.Fatalf("Check = %v, want the RAT-only clause rejected as not RUP", err)
	}
}

func TestCheckRejectsDroppedInput(t *testing.T) {
	buf := pigeonProof(t)
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Dropping one input leaves the learnt unit underivable.
	out := recs[:0]
	dropped := false
	for _, rec := range recs {
		if !dropped && rec.Kind == KindInput {
			dropped = true
			continue
		}
		out = append(out, rec)
	}
	var mutated bytes.Buffer
	if err := WriteAll(&mutated, out); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(mutated.Bytes())); err == nil {
		t.Fatal("checker accepted a proof missing a premise")
	}
}

func TestCheckRejectsUnknownDelete(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	w.LogDelete(42)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted a dangling delete")
	}
}

func TestCheckRejectsUnsupportedAssumptionConflict(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.LogInput([]sat.Lit{sat.PosLit(0), sat.PosLit(1)})
	w.EndUnsat([]sat.Lit{sat.PosLit(2)}) // assumption implies nothing
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted an unjustified assumption conflict")
	}
}

// farkasLemmaRecords builds a theory proof: x₀ ≥ 1, x₁ ≥ 1 and x₀+x₁ ≤ 1
// are jointly infeasible, certified with unit Farkas coefficients.
func farkasLemmaRecords(coeffs []numeric.Q) []*Record {
	a0 := sat.PosLit(0) // negated: x₀ ≥ 1 (slack 0)
	a1 := sat.PosLit(1) // negated: x₁ ≥ 1 (slack 1)
	a2 := sat.PosLit(2) // positive: x₀+x₁ ≤ 1 (slack 2)
	return []*Record{
		{Kind: KindSlackDef, Var: 2, Terms: []Term{{Var: 0, Coeff: q(1)}, {Var: 1, Coeff: q(1)}}},
		{Kind: KindAtomDef, Var: 0, Slack: 0, Pos: dlt(1, -1), Neg: dlt(1, 0)},
		{Kind: KindAtomDef, Var: 1, Slack: 1, Pos: dlt(1, -1), Neg: dlt(1, 0)},
		{Kind: KindAtomDef, Var: 2, Slack: 2, Pos: dlt(1, 0), Neg: dlt(1, 1)},
		// Bounds asserted as units so the lemma closes the proof.
		{Kind: KindInput, ID: 1, Lits: []sat.Lit{a0.Not()}},
		{Kind: KindInput, ID: 2, Lits: []sat.Lit{a1.Not()}},
		{Kind: KindInput, ID: 3, Lits: []sat.Lit{a2}},
		{Kind: KindTheoryLemma, ID: 4, Lits: []sat.Lit{a0, a1, a2.Not()}, Coeffs: coeffs},
		{Kind: KindUnsat, Check: 1},
	}
}

func TestCheckAcceptsFarkasLemma(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, farkasLemmaRecords([]numeric.Q{q(1), q(1), q(1)})); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.TheoryLemmas != 1 || rep.UnsatChecks != 1 {
		t.Fatalf("unexpected report: %v", rep)
	}
}

func TestCheckRejectsBadFarkasCoefficients(t *testing.T) {
	cases := map[string][]numeric.Q{
		"wrong scale":  {q(2), q(1), q(1)}, // variables no longer cancel
		"zero":         {q(0), q(1), q(1)},
		"negative":     {q(-1), q(1), q(1)},
		"missing cert": make([]numeric.Q, 3), // what the writer emits unstaged
	}
	for name, coeffs := range cases {
		var buf bytes.Buffer
		if err := WriteAll(&buf, farkasLemmaRecords(coeffs)); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: checker accepted an invalid Farkas certificate", name)
		}
	}
}

func TestCheckRejectsNonContradictoryLemma(t *testing.T) {
	recs := farkasLemmaRecords([]numeric.Q{q(1), q(1), q(1)})
	// Relax the upper bound to x₀+x₁ ≤ 2: the combination is now satisfiable
	// (rhs 0, not negative), so the lemma proves nothing.
	recs[3].Pos = dlt(2, 0)
	recs[3].Neg = dlt(2, 1)
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted a non-contradictory Farkas combination")
	}
}

func TestCheckRestartsIsolateSegments(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	w.LogInput([]sat.Lit{sat.NegLit(0)})
	w.EndUnsat(nil)
	w.Restart()
	// After the restart the contradiction is gone; an unsupported check must
	// be rejected even though the previous segment was unsat.
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker leaked state across a restart")
	}
}

func TestCheckRejectsStrictBoundSatisfiableCombination(t *testing.T) {
	// x < 1 and x ≥ 1 conflict only through the delta order; x ≤ 1 and
	// x ≥ 1 do not conflict at all. The checker must tell them apart.
	strict := []*Record{
		{Kind: KindAtomDef, Var: 0, Slack: 0, Pos: dlt(1, -1), Neg: dlt(1, 0)}, // x ≤ 1−δ / x ≥ 1
		{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(0)}},
		{Kind: KindAtomDef, Var: 1, Slack: 0, Pos: dlt(1, 0), Neg: dlt(1, 1)}, // x ≤ 1 / x ≥ 1+δ
		{Kind: KindInput, ID: 2, Lits: []sat.Lit{sat.NegLit(1)}},
		{Kind: KindTheoryLemma, ID: 3, Lits: []sat.Lit{sat.NegLit(0), sat.PosLit(1)}, Coeffs: []numeric.Q{q(1), q(1)}},
		{Kind: KindUnsat, Check: 1},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, strict); err != nil {
		t.Fatal(err)
	}
	// x ≤ 1−δ with x ≥ 1+δ: rhs = (1−δ) − (1+δ) = −2δ < 0 — valid.
	if _, err := Check(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("strict conflict rejected: %v", err)
	}
	// Weaken to the non-strict pair x ≤ 1, x ≥ 1: rhs = 0 — no conflict.
	strict[0].Pos = dlt(1, 0)
	strict[2].Neg = dlt(1, 0)
	buf.Reset()
	if err := WriteAll(&buf, strict); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted a combination that is only tight, not contradictory")
	}
}
