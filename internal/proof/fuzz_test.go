package proof_test

import (
	"bytes"
	"testing"

	"segrid/internal/cnf"
	"segrid/internal/numeric"
	"segrid/internal/proof"
	"segrid/internal/sat"
)

func qi(n int64) numeric.Q { return numeric.QFromInt(n) }

func dl(std, inf int64) numeric.Delta {
	return numeric.NewDeltaQ(qi(std), qi(inf))
}

// fuzzSeed serializes a record stream built through the Writer the way the
// solver would, so the corpus starts from well-formed certificates the
// mutator can corrupt one byte at a time.
func fuzzSeed(f *testing.F, build func(w *proof.Writer)) {
	f.Helper()
	var buf bytes.Buffer
	w := proof.NewWriter(&buf)
	build(w)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// FuzzProof throws arbitrary bytes at the certificate checker (and, when the
// stream verifies, at the trimmer). Certificates cross a trust boundary — the
// checker exists precisely because solver output is not taken on faith — so
// the property is absence of panics and runaway allocation: every malformed
// stream must come back as an error, never a crash.
func FuzzProof(f *testing.F) {
	fuzzSeed(f, func(w *proof.Writer) { // propositional pigeon proof
		x, y := sat.PosLit(0), sat.PosLit(1)
		w.LogInput([]sat.Lit{x, y})
		w.LogInput([]sat.Lit{x.Not(), y})
		w.LogInput([]sat.Lit{x, y.Not()})
		w.LogInput([]sat.Lit{x.Not(), y.Not()})
		w.LogLearnt([]sat.Lit{y})
		w.EndUnsat(nil)
	})
	fuzzSeed(f, func(w *proof.Writer) { // gate definition, swallowed clauses
		a, b, g := sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)
		w.DefineGate(cnf.GateAnd, g.Var(), []sat.Lit{a, b})
		for _, cl := range cnf.GateClauses(nil, cnf.GateAnd, g, []sat.Lit{a, b}) {
			w.LogInput(cl)
		}
		w.LogInput([]sat.Lit{g})
		w.LogInput([]sat.Lit{a.Not(), b.Not()})
		w.EndUnsat(nil)
	})
	fuzzSeed(f, func(w *proof.Writer) { // guarded cardinality circuit
		lits := []sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.PosLit(2)}
		guard := sat.NegLit(9)
		w.DefineCard(lits, 1, 3, guard)
		for _, cl := range cnf.AtMostK(nil, lits, 1, 3, guard) {
			w.LogInput(cl)
		}
		w.LogInput([]sat.Lit{lits[0]})
		w.LogInput([]sat.Lit{lits[1]})
		w.EndUnsat([]sat.Lit{sat.PosLit(9)})
	})
	fuzzSeed(f, func(w *proof.Writer) { // theory records, two segments
		w.DefineSlack(2, []proof.Term{{Var: 0, Coeff: qi(1)}, {Var: 1, Coeff: qi(1)}})
		w.DefineAtom(0, 0, dl(1, -1), dl(1, 0))
		w.DefineAtom(1, 1, dl(1, -1), dl(1, 0))
		w.DefineAtom(2, 2, dl(1, 0), dl(1, 1))
		w.LogInput([]sat.Lit{sat.NegLit(0)})
		w.LogInput([]sat.Lit{sat.NegLit(1)})
		w.LogInput([]sat.Lit{sat.PosLit(2)})
		w.StageFarkas([]numeric.Q{qi(1), qi(1), qi(1)})
		w.LogTheoryLemma([]sat.Lit{sat.PosLit(0), sat.PosLit(1), sat.NegLit(2)})
		w.EndUnsat(nil)
		w.Restart()
		w.LogInput([]sat.Lit{sat.PosLit(0)})
		w.LogInput([]sat.Lit{sat.NegLit(0)})
		w.EndUnsat(nil)
	})
	f.Add([]byte("SGPF2\n"))
	f.Add([]byte("SGPF1\nanything"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := proof.Check(bytes.NewReader(data)); err != nil {
			return
		}
		// A verifying stream must survive trimming, and the trimmed stream
		// must still verify once written back out.
		recs, err := proof.ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("valid stream failed to read: %v", err)
		}
		trimmed, _, err := proof.Trim(recs)
		if err != nil {
			t.Fatalf("valid stream failed to trim: %v", err)
		}
		var out bytes.Buffer
		if err := proof.WriteAll(&out, trimmed); err != nil {
			t.Fatalf("write trimmed stream: %v", err)
		}
		if _, err := proof.Check(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("trimmed stream no longer verifies: %v", err)
		}
	})
}
