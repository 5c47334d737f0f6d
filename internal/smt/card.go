package smt

import (
	"fmt"

	"segrid/internal/cnf"
	"segrid/internal/sat"
)

// assertCard lowers a cardinality constraint over arbitrary formulas: each
// operand is Tseitin-encoded to a literal and the counting circuit is built
// over those literals.
func (e *encoder) assertCard(cc cardConstraint) error {
	lits := make([]sat.Lit, 0, len(cc.fs))
	for _, f := range cc.fs {
		l, err := e.encode(f)
		if err != nil {
			return err
		}
		lits = append(lits, l)
	}
	switch cc.kind {
	case cardAtMost:
		e.atMostK(lits, cc.k)
	case cardAtLeast:
		// Σ x ≥ k  ⇔  Σ ¬x ≤ n − k.
		neg := make([]sat.Lit, len(lits))
		for i, l := range lits {
			neg[i] = l.Not()
		}
		e.atMostK(neg, len(lits)-cc.k)
	default:
		return fmt.Errorf("smt: unknown cardinality kind %d", cc.kind)
	}
	return nil
}

// atMostK encodes Σ lits ≤ k through the shared cnf kernel's sequential
// counter. Unlike Tseitin definitions, the counting clauses are
// one-directional constraints over the input literals, so every clause
// carries the current scope's negated selector as a guard and stops binding
// once the scope is popped. The circuit's provenance (inputs, bound, first
// register variable, guard) is logged; the proof writer swallows the
// clauses after matching them against the same kernel derivation.
func (e *encoder) atMostK(lits []sat.Lit, k int) {
	// Registers are allocated upfront and contiguously; the certificate
	// names only the first.
	firstFresh := sat.Var(0)
	if n := cnf.CardFreshVars(len(lits), k); n > 0 {
		firstFresh = e.sat.NewVar()
		for i := 1; i < n; i++ {
			e.sat.NewVar()
		}
	}
	guard := sat.LitUndef
	if e.curSel != sat.LitUndef {
		guard = e.curSel.Not()
	}
	if w := e.owner.opts.Proof; w != nil {
		w.DefineCard(lits, k, firstFresh, guard)
	}
	for _, cl := range e.defArena.AtMostK(lits, k, firstFresh, guard) {
		e.mustAdd(cl...)
	}
}
