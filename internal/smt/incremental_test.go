package smt

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"segrid/internal/numeric"
	"segrid/internal/proof"
)

// scriptState mirrors the assertion stack of the solvers under test so
// models can be validated against exactly what is currently asserted.
type scriptState struct {
	asserts [][]Formula
	cards   [][]cardConstraint
}

func newScriptState() *scriptState {
	return &scriptState{asserts: [][]Formula{nil}, cards: [][]cardConstraint{nil}}
}

func (st *scriptState) push() {
	st.asserts = append(st.asserts, nil)
	st.cards = append(st.cards, nil)
}

func (st *scriptState) pop() {
	st.asserts = st.asserts[:len(st.asserts)-1]
	st.cards = st.cards[:len(st.cards)-1]
}

func (st *scriptState) assert(f Formula) {
	st.asserts[len(st.asserts)-1] = append(st.asserts[len(st.asserts)-1], f)
}

func (st *scriptState) card(cc cardConstraint) {
	st.cards[len(st.cards)-1] = append(st.cards[len(st.cards)-1], cc)
}

// checkModel verifies a Sat result against the mirrored assertion stack.
func (st *scriptState) checkModel(t *testing.T, tag string, res *Result, nBool, nReal int) {
	t.Helper()
	bools := make(map[BoolVar]bool, nBool)
	for i := 0; i < nBool; i++ {
		bools[BoolVar(i)] = res.Bool(BoolVar(i))
	}
	reals := make(map[RealVar]*big.Rat, nReal)
	for i := 0; i < nReal; i++ {
		reals[RealVar(i)] = res.Real(RealVar(i))
	}
	for _, fs := range st.asserts {
		for _, f := range fs {
			if !evalFormula(f, bools, reals) {
				t.Fatalf("%s: model violates asserted %v", tag, f)
			}
		}
	}
	for _, ccs := range st.cards {
		for _, cc := range ccs {
			n := 0
			for _, f := range cc.fs {
				if evalFormula(f, bools, reals) {
					n++
				}
			}
			if cc.kind == cardAtMost && n > cc.k {
				t.Fatalf("%s: model has %d true of at-most-%d", tag, n, cc.k)
			}
			if cc.kind == cardAtLeast && n < cc.k {
				t.Fatalf("%s: model has %d true of at-least-%d", tag, n, cc.k)
			}
		}
	}
}

// TestDifferentialIncrementalVsFresh replays random assert/push/pop/check
// scripts on two solvers — one incremental (the default), one with
// FreshPerCheck — and requires identical statuses at every check, with both
// models validated against the live assertion stack on Sat. This is the
// suite pinning the persistent-encoder architecture to the rebuild-per-check
// semantics.
func TestDifferentialIncrementalVsFresh(t *testing.T) {
	const nBool, nReal, scripts, opsPerScript = 6, 4, 25, 40
	rng := rand.New(rand.NewSource(1847))
	for script := 0; script < scripts; script++ {
		inc := NewSolver(DefaultOptions())
		fresh := NewSolver(func() Options { o := DefaultOptions(); o.FreshPerCheck = true; return o }())
		boolVars := make([]BoolVar, nBool)
		for i := range boolVars {
			boolVars[i] = inc.BoolVar("b")
			fresh.BoolVar("b")
		}
		realVars := make([]RealVar, nReal)
		for i := range realVars {
			realVars[i] = inc.RealVar("x")
			fresh.RealVar("x")
		}
		st := newScriptState()
		checks := 0
		for op := 0; op < opsPerScript; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // assert
				f := randFormula(rng, inc, boolVars, realVars, 2)
				inc.Assert(f)
				fresh.Assert(f)
				st.assert(f)
			case r < 5: // cardinality
				n := 2 + rng.Intn(3)
				fs := make([]Formula, n)
				for i := range fs {
					fs[i] = randFormula(rng, inc, boolVars, realVars, 1)
				}
				k := rng.Intn(n)
				if rng.Intn(2) == 0 {
					inc.AssertAtMostK(fs, k)
					fresh.AssertAtMostK(fs, k)
					st.card(cardConstraint{fs: fs, k: k, kind: cardAtMost})
				} else {
					inc.AssertAtLeastK(fs, k)
					fresh.AssertAtLeastK(fs, k)
					st.card(cardConstraint{fs: fs, k: k, kind: cardAtLeast})
				}
			case r < 7: // push
				inc.Push()
				fresh.Push()
				st.push()
			case r < 8: // pop
				if inc.NumScopes() > 1 {
					if err := inc.Pop(); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Pop(); err != nil {
						t.Fatal(err)
					}
					st.pop()
				}
			default: // check
				checks++
				ri, err := inc.Check()
				if err != nil {
					t.Fatalf("script %d: incremental Check: %v", script, err)
				}
				rf, err := fresh.Check()
				if err != nil {
					t.Fatalf("script %d: fresh Check: %v", script, err)
				}
				if ri.Status != rf.Status {
					t.Fatalf("script %d op %d: incremental %v vs fresh %v", script, op, ri.Status, rf.Status)
				}
				if ri.Status == Sat {
					st.checkModel(t, "incremental", ri, nBool, nReal)
					st.checkModel(t, "fresh", rf, nBool, nReal)
				}
			}
		}
		// Every script ends with a final differential check.
		ri, err := inc.Check()
		if err != nil {
			t.Fatal(err)
		}
		rf, err := fresh.Check()
		if err != nil {
			t.Fatal(err)
		}
		if ri.Status != rf.Status {
			t.Fatalf("script %d final: incremental %v vs fresh %v", script, ri.Status, rf.Status)
		}
		if ri.Status == Sat {
			st.checkModel(t, "incremental-final", ri, nBool, nReal)
			st.checkModel(t, "fresh-final", rf, nBool, nReal)
		}
	}
}

// TestFreshPerCheckNoOpOnFirstCheck pins why one-shot callers (a service
// proof verify, ufdiverify) never need FreshPerCheck: on a new solver that
// is checked once, the option changes nothing. Random scripts (asserts,
// cardinality constraints, open scopes) run once on a solver with the
// option and once without; the check must agree on every Stats counter and
// write a byte-identical proof stream.
func TestFreshPerCheckNoOpOnFirstCheck(t *testing.T) {
	const nBool, nReal, scripts, opsPerScript = 5, 3, 30, 25
	rng := rand.New(rand.NewSource(4471))
	statuses := map[Status]int{}
	for script := 0; script < scripts; script++ {
		var incBuf, freshBuf bytes.Buffer
		incOpts := DefaultOptions()
		incOpts.Proof = proof.NewWriter(&incBuf)
		freshOpts := DefaultOptions()
		freshOpts.FreshPerCheck = true
		freshOpts.Proof = proof.NewWriter(&freshBuf)
		inc := NewSolver(incOpts)
		fresh := NewSolver(freshOpts)
		boolVars := make([]BoolVar, nBool)
		for i := range boolVars {
			boolVars[i] = inc.BoolVar("b")
			fresh.BoolVar("b")
		}
		realVars := make([]RealVar, nReal)
		for i := range realVars {
			realVars[i] = inc.RealVar("x")
			fresh.RealVar("x")
		}
		for op := 0; op < opsPerScript; op++ {
			switch r := rng.Intn(10); {
			case r < 7:
				f := randFormula(rng, inc, boolVars, realVars, 2)
				inc.Assert(f)
				fresh.Assert(f)
			case r < 9:
				n := 2 + rng.Intn(3)
				fs := make([]Formula, n)
				for i := range fs {
					fs[i] = randFormula(rng, inc, boolVars, realVars, 1)
				}
				k := rng.Intn(n)
				inc.AssertAtMostK(fs, k)
				fresh.AssertAtMostK(fs, k)
			default:
				inc.Push()
				fresh.Push()
			}
		}
		ri, err := inc.Check()
		if err != nil {
			t.Fatalf("script %d: Check: %v", script, err)
		}
		rf, err := fresh.Check()
		if err != nil {
			t.Fatalf("script %d: FreshPerCheck Check: %v", script, err)
		}
		si, sf := ri.Stats, rf.Stats
		si.AllocBytes, sf.AllocBytes = 0, 0
		si.Duration, sf.Duration = 0, 0
		if ri.Status != rf.Status || si != sf {
			t.Fatalf("script %d: %v %+v without the option, %v %+v with it", script, ri.Status, si, rf.Status, sf)
		}
		statuses[ri.Status]++
		if err := incOpts.Proof.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := freshOpts.Proof.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(incBuf.Bytes(), freshBuf.Bytes()) {
			t.Fatalf("script %d: proof streams differ (%d vs %d bytes)", script, incBuf.Len(), freshBuf.Len())
		}
	}
	if statuses[Sat] == 0 || statuses[Unsat] == 0 {
		t.Fatalf("statuses %v: the scripts must reach both verdicts", statuses)
	}
}

// TestProofCertificatesOnRandomScripts replays random assert/push/pop/check
// scripts with proof logging enabled on both the persistent and the
// FreshPerCheck twin. Every Unsat must come back with a certificate handle
// whose check index counts that writer's Unsat verdicts, and at the end of
// each script both streams must verify clean under the independent checker,
// covering exactly as many Unsat checks as the script observed.
func TestProofCertificatesOnRandomScripts(t *testing.T) {
	const nBool, nReal, scripts, opsPerScript = 5, 3, 15, 35
	rng := rand.New(rand.NewSource(90210))
	sawUnsat := false
	for script := 0; script < scripts; script++ {
		var incBuf, freshBuf bytes.Buffer
		incOpts := DefaultOptions()
		incOpts.Proof = proof.NewWriter(&incBuf)
		freshOpts := DefaultOptions()
		freshOpts.FreshPerCheck = true
		freshOpts.Proof = proof.NewWriter(&freshBuf)
		inc := NewSolver(incOpts)
		fresh := NewSolver(freshOpts)
		boolVars := make([]BoolVar, nBool)
		for i := range boolVars {
			boolVars[i] = inc.BoolVar("b")
			fresh.BoolVar("b")
		}
		realVars := make([]RealVar, nReal)
		for i := range realVars {
			realVars[i] = inc.RealVar("x")
			fresh.RealVar("x")
		}
		unsats := uint64(0)
		check := func(op int) {
			ri, err := inc.Check()
			if err != nil {
				t.Fatalf("script %d op %d: incremental Check: %v", script, op, err)
			}
			rf, err := fresh.Check()
			if err != nil {
				t.Fatalf("script %d op %d: fresh Check: %v", script, op, err)
			}
			if ri.Status != rf.Status {
				t.Fatalf("script %d op %d: incremental %v vs fresh %v", script, op, ri.Status, rf.Status)
			}
			if ri.Status != Unsat {
				if ri.Proof != nil || rf.Proof != nil {
					t.Fatalf("script %d op %d: non-unsat result carries a proof handle", script, op)
				}
				return
			}
			unsats++
			sawUnsat = true
			for name, res := range map[string]*Result{"incremental": ri, "fresh": rf} {
				if res.Proof == nil {
					t.Fatalf("script %d op %d: %s Unsat without certificate handle", script, op, name)
				}
				if res.Proof.Check != unsats {
					t.Fatalf("script %d op %d: %s handle check %d, want %d", script, op, name, res.Proof.Check, unsats)
				}
			}
		}
		for op := 0; op < opsPerScript; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // assert
				f := randFormula(rng, inc, boolVars, realVars, 2)
				inc.Assert(f)
				fresh.Assert(f)
			case r < 6: // cardinality, biased low to force unsat often
				n := 2 + rng.Intn(3)
				fs := make([]Formula, n)
				for i := range fs {
					fs[i] = randFormula(rng, inc, boolVars, realVars, 1)
				}
				k := rng.Intn(2)
				inc.AssertAtMostK(fs, k)
				fresh.AssertAtMostK(fs, k)
			case r < 7: // push
				inc.Push()
				fresh.Push()
			case r < 8: // pop
				if inc.NumScopes() > 1 {
					if err := inc.Pop(); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Pop(); err != nil {
						t.Fatal(err)
					}
				}
			default:
				check(op)
			}
		}
		check(opsPerScript)
		for name, pair := range map[string]struct {
			w   *proof.Writer
			buf *bytes.Buffer
		}{"incremental": {incOpts.Proof, &incBuf}, "fresh": {freshOpts.Proof, &freshBuf}} {
			if err := pair.w.Flush(); err != nil {
				t.Fatalf("script %d: %s writer: %v", script, name, err)
			}
			rep, err := proof.Check(bytes.NewReader(pair.buf.Bytes()))
			if err != nil {
				t.Fatalf("script %d: %s certificate rejected: %v", script, name, err)
			}
			if rep.UnsatChecks != int(unsats) {
				t.Fatalf("script %d: %s certificate covers %d unsat checks, script saw %d",
					script, name, rep.UnsatChecks, unsats)
			}
			// The differential at the heart of the v2 trust story: every
			// definitional clause the encoder added matched the kernel
			// derivation byte for byte (the writer swallowed it), and the
			// checker re-derived exactly that many from the provenance
			// records alone.
			if m := pair.w.DefMismatches(); m != 0 {
				t.Fatalf("script %d: %s encoder diverged from the cnf kernel on %d definitional clauses", script, name, m)
			}
			if rep.DefClauses != int(pair.w.DefClauses()) {
				t.Fatalf("script %d: %s checker re-derived %d definitional clauses, encoder emitted %d",
					script, name, rep.DefClauses, pair.w.DefClauses())
			}
		}
	}
	if !sawUnsat {
		t.Fatalf("no script ever went unsat; the suite exercised nothing — reseed")
	}
}

// TestProofMutationRejected pins the checker's end of the trust story: a
// certificate the solver just emitted verifies clean, and the same
// certificate with one theory-lemma Farkas coefficient corrupted is
// rejected. A checker that cannot tell those apart certifies nothing.
func TestProofMutationRejected(t *testing.T) {
	var buf bytes.Buffer
	opts := DefaultOptions()
	opts.Proof = proof.NewWriter(&buf)
	s := NewSolver(opts)
	x := s.RealVar("x")
	y := s.RealVar("y")
	s.Assert(LE(NewLinExpr().TermInt(1, x).TermInt(1, y), big.NewRat(1, 1)))
	s.Assert(GE(NewLinExpr().TermInt(1, x), big.NewRat(1, 1)))
	s.Assert(GE(NewLinExpr().TermInt(1, y), big.NewRat(1, 1)))
	res, err := s.Check()
	if err != nil || res.Status != Unsat {
		t.Fatalf("Check = %v, %v; want unsat", res, err)
	}
	if res.Proof == nil {
		t.Fatalf("Unsat result carries no certificate handle")
	}
	if err := opts.Proof.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := proof.Check(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("pristine certificate rejected: %v", err)
	}
	recs, err := proof.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mutated := -1
	for i, rec := range recs {
		if rec.Kind == proof.KindTheoryLemma && len(rec.Coeffs) > 0 {
			rec.Coeffs[0] = rec.Coeffs[0].Add(numeric.QFromInt(1))
			mutated = i
			break
		}
	}
	if mutated < 0 {
		t.Fatalf("no theory lemma with Farkas coefficients in the stream; the instance must conflict in the simplex")
	}
	var corrupted bytes.Buffer
	if err := proof.WriteAll(&corrupted, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := proof.Check(bytes.NewReader(corrupted.Bytes())); err == nil {
		t.Fatalf("checker accepted a certificate with a corrupted Farkas coefficient (record %d)", mutated)
	}
}

// TestBudgetPerCheckOnPersistentSolver is the SMT-level regression for the
// cumulative budget bug: with one SAT instance now persisting across Checks,
// a per-check budget must be measured against each check's own work, not the
// instance's lifetime counters.
func TestBudgetPerCheckOnPersistentSolver(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	y := s.RealVar("y")
	bs := make([]Formula, 8)
	for i := range bs {
		bs[i] = B(s.BoolVar("b"))
	}
	s.Assert(Or(bs...))
	s.AssertAtMostK(bs, 2)
	s.Assert(LE(NewLinExpr().TermInt(1, x).TermInt(2, y), big.NewRat(10, 1)))
	s.Assert(GE(NewLinExpr().TermInt(3, x).TermInt(-1, y), big.NewRat(-4, 1)))
	s.SetBudget(Budget{MaxConflicts: 10000, MaxPivots: 100000})
	for i := 0; i < 6; i++ {
		res, err := s.Check()
		if err != nil {
			t.Fatalf("Check #%d: %v", i+1, err)
		}
		if res.Status != Sat {
			t.Fatalf("Check #%d = %v (why: %v); a per-check budget must not accumulate across checks",
				i+1, res.Status, res.Why)
		}
	}
}

// TestEncodeErrorRefreshesLastStats is the regression for the stale-stats
// bug: a Check failing with an encode error must not leave LastStats
// reporting the previous successful check's counters.
func TestEncodeErrorRefreshesLastStats(t *testing.T) {
	s := NewSolver(DefaultOptions())
	b := s.BoolVar("b")
	c := s.BoolVar("c")
	s.Assert(Or(B(b), B(c)))
	res, err := s.Check()
	if err != nil || res.Status != Sat {
		t.Fatalf("setup Check = %v, %v", res, err)
	}
	if s.LastStats().Propagations == 0 {
		t.Fatalf("setup check did no propagations; pick a different setup")
	}
	s.Push()
	s.Assert(B(BoolVar(99))) // unknown variable: encode error
	if _, err := s.Check(); err == nil {
		t.Fatalf("Check on unknown variable did not error")
	}
	if got := s.LastStats().Propagations; got != 0 {
		t.Fatalf("LastStats().Propagations = %d after encode error; want 0 (stats of the failed check, not the previous one)", got)
	}
	if s.LastStats().Duration == 0 {
		t.Fatalf("LastStats().Duration not set on the encode-error path")
	}
}

// TestModelAccessOnNonSatPanics pins the diagnosable panic for misuse of
// Result.Bool/Real.
func TestModelAccessOnNonSatPanics(t *testing.T) {
	s := NewSolver(DefaultOptions())
	b := s.BoolVar("b")
	s.Assert(B(b))
	s.Assert(Not(B(b)))
	res, err := s.Check()
	if err != nil || res.Status != Unsat {
		t.Fatalf("Check = %v, %v; want unsat", res, err)
	}
	expectPanic := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on non-sat result did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "model access on non-sat result") {
				t.Fatalf("%s panic = %v; want the explicit model-access message", name, r)
			}
		}()
		f()
	}
	expectPanic("Bool", func() { res.Bool(b) })
	expectPanic("Real", func() { _ = res.Real(RealVar(0)) })
}

// TestAtomKeyInterning pins the allocation fix in encodeAtom: machine-word
// rationals key numerically (no per-atom string), only overflowing rationals
// fall back to RatString, and equal rationals collide onto one key either
// way.
func TestAtomKeyInterning(t *testing.T) {
	small := makeAtomKey(3, big.NewRat(7, 2), 0)
	if small.bigRHS != "" {
		t.Fatalf("small rational keyed via string %q; want numeric fast path", small.bigRHS)
	}
	if small.num != 7 || small.den != 2 {
		t.Fatalf("fast-path key = %d/%d; want 7/2", small.num, small.den)
	}
	if again := makeAtomKey(3, big.NewRat(7, 2), 0); again != small {
		t.Fatalf("equal rationals produced distinct keys: %v vs %v", small, again)
	}
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	bigKey := makeAtomKey(3, huge, 0)
	if bigKey.bigRHS == "" {
		t.Fatalf("overflowing rational did not take the string fallback")
	}
	if again := makeAtomKey(3, new(big.Rat).Set(huge), 0); again != bigKey {
		t.Fatalf("equal big rationals produced distinct keys")
	}
	if makeAtomKey(3, big.NewRat(7, 2), -1) == small {
		t.Fatalf("δ offset not part of the key")
	}

	// Behavioral half: re-asserting the same atom across scopes and checks
	// must reuse the interned atom variable, not mint a new one.
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	atom := func() Formula { return LE(NewLinExpr().TermInt(1, x), big.NewRat(5, 1)) }
	s.Assert(atom())
	if res, err := s.Check(); err != nil || res.Status != Sat {
		t.Fatalf("Check = %v, %v", res, err)
	}
	if got := s.LastStats().Atoms; got != 1 {
		t.Fatalf("Atoms = %d after first check; want 1", got)
	}
	s.Push()
	s.Assert(atom())
	if res, err := s.Check(); err != nil || res.Status != Sat {
		t.Fatalf("scoped Check = %v, %v", res, err)
	}
	if got := s.LastStats().Atoms; got != 1 {
		t.Fatalf("Atoms = %d after re-asserting the same atom; want 1 (interned)", got)
	}
}

// TestPopRetractsScopedCardinality exercises the guarded sequential-counter
// circuit: a scoped at-most-k must stop binding after Pop.
func TestPopRetractsScopedCardinality(t *testing.T) {
	s := NewSolver(DefaultOptions())
	fs := make([]Formula, 4)
	for i := range fs {
		fs[i] = B(s.BoolVar("b"))
	}
	for _, f := range fs {
		s.Assert(f) // all true
	}
	s.Push()
	s.AssertAtMostK(fs, 1)
	res, err := s.Check()
	if err != nil || res.Status != Unsat {
		t.Fatalf("with scoped at-most-1: %v, %v; want unsat", res, err)
	}
	if err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	res, err = s.Check()
	if err != nil || res.Status != Sat {
		t.Fatalf("after Pop: %v, %v; want sat", res, err)
	}
	for i := range fs {
		if !res.Bool(BoolVar(i)) {
			t.Fatalf("model must set all bs true after the cardinality is retracted")
		}
	}
	// A scoped at-most-(-1) (impossible cardinality) must also be scoped.
	s.Push()
	s.AssertAtMostK(fs[:2], -1)
	res, err = s.Check()
	if err != nil || res.Status != Unsat {
		t.Fatalf("with impossible cardinality: %v, %v; want unsat", res, err)
	}
	if err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	res, err = s.Check()
	if err != nil || res.Status != Sat {
		t.Fatalf("after popping impossible cardinality: %v, %v; want sat", res, err)
	}
}

// TestInterruptedCheckResumesEncoding pins the resume contract: an
// interrupter firing during the encode phase leaves the already-encoded
// prefix in place, and the next check picks up where it stopped and decides
// the instance.
func TestInterruptedCheckResumesEncoding(t *testing.T) {
	s := NewSolver(DefaultOptions())
	x := s.RealVar("x")
	for i := 0; i < 8; i++ {
		s.Assert(LE(NewLinExpr().TermInt(1, x), big.NewRat(int64(10-i), 1)))
	}
	s.Assert(GE(NewLinExpr().TermInt(1, x), big.NewRat(2, 1)))
	intr := NewCountdownInterrupter(3)
	intr.Point = PointEncode
	s.SetInterrupter(intr)
	res, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || !errors.Is(res.Why, ErrInterrupted) {
		t.Fatalf("interrupted Check = %v (why %v); want unknown/interrupted", res.Status, res.Why)
	}
	s.SetInterrupter(nil)
	res, err = s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("resumed Check = %v (why %v); want sat", res.Status, res.Why)
	}
	if got := res.Real(x); got.Cmp(big.NewRat(2, 1)) < 0 || got.Cmp(big.NewRat(3, 1)) > 0 {
		t.Fatalf("model x = %v outside [2, 3]", got)
	}
}

// TestDefinitionalDifferentialAblations runs a fixed unsat script under both
// encoder configurations that change the definitional clause stream —
// persistent vs FreshPerCheck — and requires byte-identical agreement
// between the encoder's clauses and the cnf kernel (zero writer mismatches)
// and between the provenance records and the checker's re-derivation
// (report count equals swallowed count).
func TestDefinitionalDifferentialAblations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Options)
	}{
		{"default", func(*Options) {}},
		{"fresh", func(o *Options) { o.FreshPerCheck = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			opts := DefaultOptions()
			tc.tweak(&opts)
			opts.Proof = proof.NewWriter(&buf)
			s := NewSolver(opts)
			fs := make([]Formula, 4)
			for i := range fs {
				fs[i] = B(s.BoolVar("b"))
			}
			// Gates feed the cardinality circuit; the conjunction below makes
			// all three operands true, contradicting the bound.
			s.AssertAtMostK([]Formula{Or(fs[0], fs[1]), And(fs[1], fs[2]), fs[3]}, 1)
			s.Assert(And(fs[0], fs[1], fs[2], fs[3]))
			res, err := s.Check()
			if err != nil || res.Status != Unsat {
				t.Fatalf("Check = %v, %v; want unsat", res, err)
			}
			w := opts.Proof
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if m := w.DefMismatches(); m != 0 {
				t.Fatalf("encoder diverged from the cnf kernel on %d definitional clauses", m)
			}
			if w.DefClauses() == 0 {
				t.Fatal("script produced no definitional clauses; it exercises nothing")
			}
			rep, err := proof.Check(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("certificate rejected: %v", err)
			}
			if rep.DefClauses != int(w.DefClauses()) {
				t.Fatalf("checker re-derived %d definitional clauses, encoder emitted %d",
					rep.DefClauses, w.DefClauses())
			}
			if rep.GateDefs == 0 || rep.CardDefs == 0 {
				t.Fatalf("expected both gate and card provenance records, got %d gate / %d card",
					rep.GateDefs, rep.CardDefs)
			}
		})
	}
}
