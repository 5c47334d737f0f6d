package proof

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"segrid/internal/cnf"
	"segrid/internal/sat"
)

// paddedPigeonProof is the propositional pigeon proof with junk the trimmer
// should discard: two inputs over unrelated variables, a learnt clause the
// final conflict never touches, and a deletion of that learnt clause.
func paddedPigeonProof(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x, y := sat.PosLit(0), sat.PosLit(1)
	u, v := sat.PosLit(5), sat.PosLit(6)
	w.LogInput([]sat.Lit{u, v})
	w.LogInput([]sat.Lit{u.Not(), v})
	w.LogInput([]sat.Lit{x, y})
	w.LogInput([]sat.Lit{x.Not(), y})
	w.LogInput([]sat.Lit{x, y.Not()})
	w.LogInput([]sat.Lit{x.Not(), y.Not()})
	id := w.LogLearnt([]sat.Lit{v}) // derivable from the junk, used by nothing
	w.LogLearnt([]sat.Lit{y})
	w.LogDelete(id)
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return &buf
}

func TestTrimDropsUnreachableRecords(t *testing.T) {
	buf := paddedPigeonProof(t)
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	trimmed, _, err := Trim(recs)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if len(trimmed) >= len(recs) {
		t.Fatalf("trim kept %d of %d records", len(trimmed), len(recs))
	}
	for _, rec := range trimmed {
		switch {
		case rec.Kind == KindDelete:
			t.Fatal("trim kept a deletion of a dropped clause")
		case len(rec.Lits) > 0 && rec.Lits[0].Var() >= 5:
			t.Fatalf("trim kept junk record %+v", rec)
		}
	}
	// The trimmed stream must verify on its own.
	var out bytes.Buffer
	if err := WriteAll(&out, trimmed); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("trimmed stream rejected: %v", err)
	}
	if rep.UnsatChecks != 1 {
		t.Fatalf("trimmed stream covers %d unsat checks, want 1", rep.UnsatChecks)
	}
}

// TestTrimKeepsLoadBearingDefinitions: the gate provenance record supplies
// the clauses the final conflict propagates through, so it must survive; an
// unrelated second gate over fresh variables must not.
func TestTrimKeepsLoadBearingDefinitions(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a, b, g := sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)
	w.DefineGate(cnf.GateAnd, g.Var(), []sat.Lit{a, b})
	for _, cl := range cnf.GateClauses(nil, cnf.GateAnd, g, []sat.Lit{a, b}) {
		w.LogInput(cl)
	}
	// A second gate nothing depends on.
	h := sat.PosLit(5)
	w.DefineGate(cnf.GateOr, h.Var(), []sat.Lit{sat.PosLit(3), sat.PosLit(4)})
	for _, cl := range cnf.GateClauses(nil, cnf.GateOr, h, []sat.Lit{sat.PosLit(3), sat.PosLit(4)}) {
		w.LogInput(cl)
	}
	w.LogInput([]sat.Lit{g})
	w.LogInput([]sat.Lit{a.Not(), b.Not()})
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	trimmed, _, err := Trim(recs)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	var gates []cnf.Gate
	for _, rec := range trimmed {
		if rec.Kind == KindGateDef {
			gates = append(gates, rec.Gate)
		}
	}
	if len(gates) != 1 || gates[0] != cnf.GateAnd {
		t.Fatalf("trim kept gate defs %v, want just the And gate", gates)
	}
	var out bytes.Buffer
	if err := WriteAll(&out, trimmed); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("trimmed stream rejected: %v", err)
	}
}

// TestTrimMultiSegment: every segment's answer must stay self-contained —
// restarts survive, and each kept segment re-verifies.
func TestTrimMultiSegment(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x := sat.PosLit(0)
	w.LogInput([]sat.Lit{x})
	w.LogInput([]sat.Lit{sat.PosLit(3), sat.PosLit(4)}) // junk
	w.LogInput([]sat.Lit{x.Not()})
	w.EndUnsat(nil)
	w.Restart()
	y := sat.PosLit(1)
	w.LogInput([]sat.Lit{sat.PosLit(5), sat.PosLit(6)}) // junk
	w.LogInput([]sat.Lit{y})
	w.LogInput([]sat.Lit{y.Not()})
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	trimmed, _, err := Trim(recs)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if len(trimmed) != len(recs)-2 {
		t.Fatalf("trim kept %d of %d records, want both junk inputs dropped", len(trimmed), len(recs))
	}
	var out bytes.Buffer
	if err := WriteAll(&out, trimmed); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("trimmed stream rejected: %v", err)
	}
	if rep.UnsatChecks != 2 || rep.Restarts != 1 {
		t.Fatalf("unexpected report: %v", rep)
	}
}

func TestTrimFileRoundTrip(t *testing.T) {
	buf := paddedPigeonProof(t)
	path := filepath.Join(t.TempDir(), "cert.proof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := TrimFile(path)
	if err != nil {
		t.Fatalf("TrimFile: %v", err)
	}
	if st.RecordsAfter >= st.RecordsBefore || st.BytesAfter >= st.BytesBefore {
		t.Fatalf("trim did not shrink the certificate: %+v", st)
	}
	if st.Ratio() <= 1 {
		t.Fatalf("Ratio() = %v, want > 1", st.Ratio())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != st.BytesAfter {
		t.Fatalf("file is %d bytes, stats claim %d", info.Size(), st.BytesAfter)
	}
	if _, err := CheckFile(path); err != nil {
		t.Fatalf("trimmed file rejected: %v", err)
	}
	// Trimming is idempotent: a second pass finds nothing else to remove.
	st2, err := TrimFile(path)
	if err != nil {
		t.Fatalf("second TrimFile: %v", err)
	}
	if st2.RecordsAfter != st2.RecordsBefore {
		t.Fatalf("second trim removed %d records", st2.RecordsBefore-st2.RecordsAfter)
	}
}

// TestTrimRejectsInvalidStream: trimming verifies as it replays; a stream
// that does not check must not come back "trimmed".
func TestTrimRejectsInvalidStream(t *testing.T) {
	recs := []*Record{
		{Kind: KindInput, ID: 1, Lits: []sat.Lit{sat.PosLit(0)}},
		{Kind: KindUnsat, Check: 1},
	}
	if _, _, err := Trim(recs); err == nil {
		t.Fatal("Trim accepted an unjustified unsat check")
	}
}
