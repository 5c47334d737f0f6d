package proof

import (
	"bytes"
	"strings"
	"testing"

	"segrid/internal/cnf"
	"segrid/internal/sat"
)

// gateProof streams a tiny unsat instance through the definitional path the
// way the encoder would: a gate g = a ∧ b is declared, its three kernel
// clauses are handed to LogInput (and swallowed), then unit g together with
// (¬a ∨ ¬b) contradicts the gate semantics.
func gateProof(t *testing.T) (*bytes.Buffer, *Writer) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a, b, g := sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)
	w.DefineGate(cnf.GateAnd, g.Var(), []sat.Lit{a, b})
	for _, cl := range cnf.GateClauses(nil, cnf.GateAnd, g, []sat.Lit{a, b}) {
		w.LogInput(cl)
	}
	w.LogInput([]sat.Lit{g})
	w.LogInput([]sat.Lit{a.Not(), b.Not()})
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return &buf, w
}

func TestWriterSwallowsMatchingGateClauses(t *testing.T) {
	buf, w := gateProof(t)
	if w.DefClauses() != 3 || w.DefMismatches() != 0 {
		t.Fatalf("writer swallowed %d clauses with %d mismatches, want 3 and 0",
			w.DefClauses(), w.DefMismatches())
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The definitional clauses must not appear in the stream: only the
	// provenance record, the two real inputs, and the check.
	var gateDefs, inputs int
	for _, rec := range recs {
		switch rec.Kind {
		case KindGateDef:
			gateDefs++
		case KindInput:
			inputs++
		}
	}
	if gateDefs != 1 || inputs != 2 {
		t.Fatalf("stream has %d gate defs and %d inputs, want 1 and 2", gateDefs, inputs)
	}
	rep, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.GateDefs != 1 || rep.DefClauses != 3 || rep.UnsatChecks != 1 {
		t.Fatalf("unexpected report: %v", rep)
	}
}

// cardProof mirrors gateProof for a sequential-counter at-most-1 circuit over
// three literals: the circuit is declared and its kernel clauses swallowed,
// then two of the literals are asserted true.
func cardProof(t *testing.T, guard sat.Lit) (*bytes.Buffer, *Writer) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	lits := []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}
	firstFresh := sat.Var(3) // registers 3, 4 = (n−1)·k fresh vars
	w.DefineCard(lits, 1, firstFresh, guard)
	for _, cl := range cnf.AtMostK(nil, lits, 1, firstFresh, guard) {
		w.LogInput(cl)
	}
	w.LogInput([]sat.Lit{lits[0]})
	w.LogInput([]sat.Lit{lits[1]})
	if guard != sat.LitUndef {
		w.EndUnsat([]sat.Lit{guard.Not()})
	} else {
		w.EndUnsat(nil)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return &buf, w
}

func TestWriterSwallowsMatchingCardClauses(t *testing.T) {
	for _, guard := range []sat.Lit{sat.LitUndef, sat.NegLit(9)} {
		buf, w := cardProof(t, guard)
		if w.DefMismatches() != 0 || w.DefClauses() == 0 {
			t.Fatalf("guard %v: writer swallowed %d clauses with %d mismatches",
				guard, w.DefClauses(), w.DefMismatches())
		}
		rep, err := Check(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("guard %v: Check: %v", guard, err)
		}
		if rep.CardDefs != 1 || rep.DefClauses != int(w.DefClauses()) {
			t.Fatalf("guard %v: unexpected report: %v", guard, rep)
		}
	}
}

// TestWriterFlagsDivergentDefinitionalClause simulates a broken encoder: the
// clause handed to LogInput differs from the kernel derivation the DefineGate
// call promised. The writer must count the mismatch and the resulting stream
// must fail checking — a divergent definitional clause is logged as a learnt
// clause, and a clause over a fresh variable is never derivable.
func TestWriterFlagsDivergentDefinitionalClause(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a, b, g := sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)
	w.DefineGate(cnf.GateAnd, g.Var(), []sat.Lit{a, b})
	clauses := cnf.GateClauses(nil, cnf.GateAnd, g, []sat.Lit{a, b})
	w.LogInput([]sat.Lit{g, a}) // bug: should be (¬g ∨ a)
	for _, cl := range clauses[1:] {
		w.LogInput(cl)
	}
	w.LogInput([]sat.Lit{g})
	w.LogInput([]sat.Lit{a.Not(), b.Not()})
	w.EndUnsat(nil)
	w.Close()
	if w.DefMismatches() != 1 || w.DefClauses() != 2 {
		t.Fatalf("writer saw %d mismatches and %d matches, want 1 and 2",
			w.DefMismatches(), w.DefClauses())
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted a stream whose encoder diverged from the kernel")
	}
}

// TestWriterPoisonsUnderDeliveredDefinitions: promising a gate and never
// adding its clauses leaves claimed clause ids unused; Close must surface the
// error rather than emit a quietly inconsistent stream.
func TestWriterPoisonsUnderDeliveredDefinitions(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.DefineGate(cnf.GateAnd, 2, []sat.Lit{sat.PosLit(0), sat.PosLit(1)})
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted a stream with promised but never-added definitional clauses")
	}
	if w.DefMismatches() != 3 {
		t.Fatalf("writer counted %d mismatches, want 3", w.DefMismatches())
	}
}

// TestCheckRejectsTamperedGateDef flips the recorded gate shape from And to
// Or. The re-derived clauses then no longer propagate the conflict the proof
// relies on, so the Unsat check must fail: provenance records are inputs to
// the kernel, not trusted clauses.
func TestCheckRejectsTamperedGateDef(t *testing.T) {
	buf, _ := gateProof(t)
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == KindGateDef {
			rec.Gate = cnf.GateOr
		}
	}
	var mutated bytes.Buffer
	if err := WriteAll(&mutated, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(mutated.Bytes())); err == nil {
		t.Fatal("checker accepted a tampered gate definition")
	}
}

// TestCheckRejectsTamperedCardBound raises the recorded bound from 1 to 2:
// two true literals no longer conflict, so the proof must stop verifying.
func TestCheckRejectsTamperedCardBound(t *testing.T) {
	buf, _ := cardProof(t, sat.LitUndef)
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == KindCardDef {
			rec.K = 2
		}
	}
	var mutated bytes.Buffer
	if err := WriteAll(&mutated, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(mutated.Bytes())); err == nil {
		t.Fatal("checker accepted a tampered cardinality bound")
	}
}

// TestCheckRejectsTamperedCardDef tampers with a guarded CardDef record,
// or adds a derived clause the record does not imply; the checker must
// refuse each stream. The record is an input to the kernel, so flipping
// its guard or dropping an input changes the re-derived circuit, and a
// clause over k+2 inputs without the guard is not implied: the guard
// absorbs any number of true inputs.
func TestCheckRejectsTamperedCardDef(t *testing.T) {
	guard := sat.NegLit(9)
	cases := map[string]func([]*Record) []*Record{
		"flipped guard": func(recs []*Record) []*Record {
			recs[0].Guard = recs[0].Guard.Not()
			return recs
		},
		"dropped input": func(recs []*Record) []*Record {
			recs[0].Lits = recs[0].Lits[1:]
			return recs
		},
		"unguarded learnt over k+2 inputs": func(recs []*Record) []*Record {
			learnt := &Record{Kind: KindDerived, ID: 100, Lits: []sat.Lit{sat.NegLit(0), sat.NegLit(1), sat.NegLit(2)}}
			return append(recs[:1], append([]*Record{learnt}, recs[1:]...)...)
		},
	}
	for name, edit := range cases {
		buf, _ := cardProof(t, guard)
		recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Kind != KindCardDef {
			t.Fatalf("first record is %v, want the CardDef", recs[0].Kind)
		}
		var mutated bytes.Buffer
		if err := WriteAll(&mutated, edit(recs)); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(&mutated); err == nil {
			t.Errorf("%s: checker accepted the tampered stream", name)
		}
	}
}

// TestCheckRejectsNonFreshDefVariables pins the soundness core of
// re-derivation: a definitional record may only introduce clauses over a
// variable the segment has never seen, otherwise "definitions" could
// constrain problem variables into a false UNSAT.
func TestCheckRejectsNonFreshDefVariables(t *testing.T) {
	cases := map[string][]*Record{
		"gate output seen": {
			{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(0)}},
			{Kind: KindGateDef, ID: 2, Gate: cnf.GateAnd, Var: 0, Lits: []sat.Lit{sat.PosLit(1), sat.PosLit(2)}},
		},
		"gate self-reference": {
			{Kind: KindGateDef, ID: 1, Gate: cnf.GateAnd, Var: 3, Lits: []sat.Lit{sat.PosLit(3), sat.PosLit(1)}},
		},
		"card register seen": {
			{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(3)}},
			{Kind: KindCardDef, ID: 2, K: 1, Var: 3,
				Guard: sat.LitUndef, Lits: []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}},
		},
		"card register among inputs": {
			{Kind: KindCardDef, ID: 1, K: 1, Var: 2,
				Guard: sat.LitUndef, Lits: []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}},
		},
	}
	for name, recs := range cases {
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: checker accepted a definitional record over a non-fresh variable", name)
		}
	}
}

// TestCheckAllowsFreshDefVariablesAfterRestart: the freshness requirement is
// per segment — a restart rebuilds the encoder, which reuses low variable
// indices for new definitions.
func TestCheckAllowsFreshDefVariablesAfterRestart(t *testing.T) {
	buf1, _ := gateProof(t)
	recs, err := ReadAll(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, &Record{Kind: KindRestart})
	buf2, _ := gateProof(t)
	more, err := ReadAll(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range more {
		if rec.Kind == KindUnsat {
			rec.Check = 2 // checks are numbered across the whole stream
		}
	}
	recs = append(recs, more...)
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.GateDefs != 2 || rep.UnsatChecks != 2 || rep.Restarts != 1 {
		t.Fatalf("unexpected report: %v", rep)
	}
}

// TestCheckRejectsOverlargeCardDef: a cardinality record whose derivation
// would exceed the stream limits (here a sequential counter whose n·k
// clause count passes maxProofLen) must be rejected before any allocation,
// and a record carrying an encoding byte other than the sequential
// counter's (the retired pairwise encoding wrote 2) must not decode.
func TestCheckRejectsOverlargeCardDef(t *testing.T) {
	n := 6000
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = sat.PosLit(sat.Var(i))
	}
	recs := []*Record{
		{Kind: KindCardDef, ID: 1, K: n / 2, Var: 0, Guard: sat.LitUndef, Lits: lits},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("checker accepted a cardinality definition deriving more clauses than a stream may hold")
	}

	buf.Reset()
	small := []*Record{
		{Kind: KindCardDef, ID: 1, K: 1, Var: 3, Guard: sat.LitUndef,
			Lits: []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}},
	}
	if err := WriteAll(&buf, small); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Stream layout: magic, kind byte, uvarint ID (one byte for 1), then
	// the encoding byte.
	enc := len(magic) + 2
	if raw[enc] != cardSeqCounter {
		t.Fatalf("encoding byte at offset %d = %d, want %d", enc, raw[enc], cardSeqCounter)
	}
	raw[enc] = 2
	if _, err := ReadAll(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unknown cardinality encoding 2") {
		t.Fatalf("reader on a pairwise CardDef = %v, want an unknown-encoding error", err)
	}
	if _, err := Check(bytes.NewReader(raw)); err == nil {
		t.Fatal("checker accepted a pairwise CardDef")
	}
}

func TestRecordRoundTripDefinitions(t *testing.T) {
	recs := []*Record{
		{Kind: KindGateDef, ID: 1, Gate: cnf.GateAnd, Var: 7, Lits: []sat.Lit{sat.PosLit(0), sat.NegLit(1)}},
		{Kind: KindGateDef, ID: 4, Gate: cnf.GateTrue, Var: 8},
		{Kind: KindCardDef, ID: 5, K: 2, Var: 9,
			Guard: sat.NegLit(3), Lits: []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}},
		{Kind: KindCardDef, ID: 13, K: 1, Var: 0,
			Guard: sat.LitUndef, Lits: []sat.Lit{sat.PosLit(4), sat.PosLit(5)}},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-trip length: got %d, want %d", len(got), len(recs))
	}
	for i, g := range got {
		w := recs[i]
		if g.Kind != w.Kind || g.ID != w.ID || g.Gate != w.Gate ||
			g.K != w.K || g.Var != w.Var || g.Guard != w.Guard {
			t.Errorf("record %d: got %+v, want %+v", i, g, w)
		}
		if !litsEqual(g.Lits, w.Lits) {
			t.Errorf("record %d: lits %v, want %v", i, g.Lits, w.Lits)
		}
	}
}
