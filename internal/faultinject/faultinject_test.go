package faultinject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"segrid/internal/sat"
	"segrid/internal/smt"

	"segrid/internal/proof"
)

var mixedConfig = Config{PCancel: 0.2, PPoison: 0.2, PStall: 0.1, PProofErr: 0.1}

// TestScheduleDeterminism pins the harness contract: the decision sequence
// is a pure function of (seed, config), byte-for-byte across runs.
func TestScheduleDeterminism(t *testing.T) {
	a, b := New(42, mixedConfig), New(42, mixedConfig)
	var seqA, seqB bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&seqA, "%+v\n", a.Next())
		fmt.Fprintf(&seqB, "%+v\n", b.Next())
	}
	if seqA.String() != seqB.String() {
		t.Fatalf("same seed produced diverging schedules")
	}
	c := New(43, mixedConfig)
	var seqC bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&seqC, "%+v\n", c.Next())
	}
	if seqA.String() == seqC.String() {
		t.Fatalf("different seeds produced identical schedules")
	}
	if a.Draws() != 500 {
		t.Fatalf("Draws = %d, want 500", a.Draws())
	}
}

// TestScheduleMixCoverage checks every configured kind actually appears: a
// schedule that never injects is a robustness test that tests nothing.
func TestScheduleMixCoverage(t *testing.T) {
	s := New(7, mixedConfig)
	got := make(map[Kind]int)
	for i := 0; i < 2000; i++ {
		got[s.Next().Kind]++
	}
	for _, k := range []Kind{None, Cancel, Poison, Stall, ProofWriteErr} {
		if got[k] == 0 {
			t.Fatalf("kind %v never drawn in 2000 decisions: %v", k, got)
		}
	}
}

// assertUnsatCore builds a small conflict-rich unsat instance.
func assertUnsatCore(s *smt.Solver) {
	n := 7
	vs := make([][]smt.BoolVar, n+1)
	for p := range vs {
		vs[p] = make([]smt.BoolVar, n)
		for h := range vs[p] {
			vs[p][h] = s.BoolVar(fmt.Sprintf("p%d_h%d", p, h))
		}
	}
	for p := 0; p <= n; p++ {
		fs := make([]smt.Formula, n)
		for h := 0; h < n; h++ {
			fs[h] = smt.B(vs[p][h])
		}
		s.Assert(smt.Or(fs...))
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.Assert(smt.Or(smt.Not(smt.B(vs[p1][h])), smt.Not(smt.B(vs[p2][h]))))
			}
		}
	}
}

// TestInjectorCancelAndPoison drives injected faults through a real check
// and asserts the solver reports the exact fault class, machine-readably.
func TestInjectorCancelAndPoison(t *testing.T) {
	cases := []struct {
		kind Kind
		want smt.UnknownReason
		why  error
	}{
		{Cancel, smt.ReasonCancelled, context.Canceled},
		{Poison, smt.ReasonInterrupted, ErrPoisoned},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			s := smt.NewSolver(smt.DefaultOptions())
			assertUnsatCore(s)
			inj := NewInjector(Decision{Kind: tc.kind, AfterPolls: 10})
			s.SetInterrupter(inj)
			res, err := s.Check()
			if err != nil {
				t.Fatalf("injected fault must not be an error, got %v", err)
			}
			if res.Status != smt.Unknown {
				t.Fatalf("Status = %v, want Unknown", res.Status)
			}
			if !inj.Fired() {
				t.Fatalf("injector never fired")
			}
			if !errors.Is(res.Why, tc.why) {
				t.Fatalf("Why = %v, want %v", res.Why, tc.why)
			}
			if res.Stats.Unknown != tc.want {
				t.Fatalf("Stats.Unknown = %v, want %v", res.Stats.Unknown, tc.want)
			}
		})
	}
}

// TestInjectorStallHitsDeadline checks a stalled solver is reaped by its
// context deadline rather than hanging: the tail-latency guard the service
// relies on.
func TestInjectorStallHitsDeadline(t *testing.T) {
	s := smt.NewSolver(smt.DefaultOptions())
	assertUnsatCore(s)
	inj := NewInjector(Decision{Kind: Stall, AfterPolls: 5, StallFor: time.Millisecond})
	s.SetInterrupter(inj)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := s.CheckContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != smt.Unknown {
		t.Fatalf("Status = %v, want Unknown", res.Status)
	}
	if res.Stats.Unknown != smt.ReasonDeadline {
		t.Fatalf("Stats.Unknown = %v (why %v), want deadline", res.Stats.Unknown, res.Why)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled check ran %s, deadline did not bite", elapsed)
	}
}

// TestInjectorReproducible checks the same decision interrupts the same
// deterministic solve at the identical point — the byte-for-byte replay
// property tests depend on.
func TestInjectorReproducible(t *testing.T) {
	run := func() smt.Stats {
		s := smt.NewSolver(smt.DefaultOptions())
		assertUnsatCore(s)
		s.SetInterrupter(NewInjector(Decision{Kind: Cancel, AfterPolls: 40}))
		res, err := s.Check()
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		st.Duration, st.AllocBytes = 0, 0 // wall-clock noise
		return st
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d diverged:\n got %+v\nwant %+v", i, got, first)
		}
	}
}

// TestFlakyWriterPoisonsProofStream checks an injected sink failure is
// sticky in the proof writer and surfaces at Close — a torn certificate is
// always detected, never silently published.
func TestFlakyWriterPoisonsProofStream(t *testing.T) {
	var sink bytes.Buffer
	d := Decision{Kind: ProofWriteErr, AfterBytes: 16}
	fw := d.Wrap(&sink).(*FlakyWriter)
	w := proof.NewWriter(fw)
	for i := 0; i < 64; i++ {
		w.LogInput([]sat.Lit{sat.PosLit(sat.Var(i)), sat.NegLit(sat.Var(i + 1))})
	}
	w.EndUnsat(nil)
	if err := w.Close(); !errors.Is(err, ErrProofSink) {
		t.Fatalf("Close = %v, want injected sink failure", err)
	}
	if !fw.Failed() {
		t.Fatalf("flaky writer never triggered")
	}
	if fw.Written() > 16 {
		t.Fatalf("sink accepted %d bytes past the %d budget", fw.Written(), 16)
	}
	// Non-proof-fault decisions leave the sink untouched.
	if out := (Decision{Kind: Cancel}).Wrap(&sink); out != &sink {
		t.Fatalf("non-proof decision wrapped the sink")
	}
}
