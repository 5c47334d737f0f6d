// Package cnf is the deterministic formula→CNF encoding kernel shared by the
// solver-side encoder (internal/smt) and the certificate checker
// (internal/proof). Both sides derive definitional clauses by calling the
// same pure functions, so the clauses the solver adds and the clauses the
// checker reconstructs from a certificate's provenance records are
// byte-identical by construction — the encoding step drops out of the proof
// trust boundary and only this kernel (plus internal/numeric) remains
// trusted.
//
// Everything here is purely combinational: no solver state, no allocation
// beyond the returned clause slices, and a fully specified clause order.
// Changing the clause order or shape of any encoding is a certificate format
// change and must be versioned in internal/proof.
//
// Derivation comes in two flavours with identical output: the package-level
// GateClauses/AtMostK functions allocate every clause freshly, while the
// methods on Arena pack all literals of a derivation into one reusable buffer
// so that steady-state derivation is allocation-free. Hot paths (the smt
// encoder and the proof writer, which derive every definitional clause twice
// between them) hold an Arena; the checker and tests may use either.
package cnf

import (
	"fmt"

	"segrid/internal/sat"
)

// Gate names a Tseitin gate shape. The output variable is defined as a pure
// equivalence with the gate applied to the inputs, so gate clauses are valid
// in every scope and never need a guard.
type Gate uint8

const (
	// GateTrue defines its output as the constant true; it has no inputs and
	// a single unit clause. The smt encoder anchors constant formulas on one
	// such literal per solver instance.
	GateTrue Gate = iota + 1
	// GateAnd defines out ↔ (in₁ ∧ … ∧ inₙ).
	GateAnd
	// GateOr defines out ↔ (in₁ ∨ … ∨ inₙ).
	GateOr
)

func (g Gate) String() string {
	switch g {
	case GateTrue:
		return "true"
	case GateAnd:
		return "and"
	case GateOr:
		return "or"
	default:
		return fmt.Sprintf("gate(%d)", uint8(g))
	}
}

// Valid reports whether g is a known gate shape (decoders use it to reject
// corrupt provenance records before deriving clauses).
func (g Gate) Valid() bool { return g >= GateTrue && g <= GateOr }

// GateClauseCount returns how many definitional clauses GateClauses emits
// for a gate with n inputs.
func GateClauseCount(g Gate, n int) int {
	if g == GateTrue {
		return 1
	}
	return n + 1
}

// GateClauses appends the definitional clauses of out ↔ g(inputs) to dst and
// returns it. The clause order is part of the certificate contract:
//
//	GateTrue: (out)
//	GateAnd:  (¬out ∨ inᵢ) for each input in order, then (out ∨ ¬in₁ … ¬inₙ)
//	GateOr:   (out ∨ ¬inᵢ) for each input in order, then (¬out ∨ in₁ … inₙ)
//
// Each returned clause is freshly allocated; dst may be nil.
func GateClauses(dst [][]sat.Lit, g Gate, out sat.Lit, inputs []sat.Lit) [][]sat.Lit {
	var a Arena
	return appendCopies(dst, a.GateClauses(g, out, inputs))
}

// CardFreshVars returns how many consecutive fresh auxiliary variables
// AtMostK consumes for n inputs and bound k. The degenerate bounds (k < 0,
// k = 0, k ≥ n) need none.
func CardFreshVars(n, k int) int {
	if k > 0 && k < n {
		return (n - 1) * k
	}
	return 0
}

// CardClauseCount returns how many clauses AtMostK emits for n inputs and
// bound k. ok is false when the count overflows the given limit (decoders
// must bound work before deriving clauses from untrusted records).
func CardClauseCount(n, k, limit int) (count int, ok bool) {
	switch {
	case k >= n:
		return 0, true
	case k < 0:
		return 1, true
	case k == 0:
		return n, n <= limit
	}
	// Base row: 1 + (k−1); middle rows (n−2 of them): 2k + 1; final: 1.
	c := k + (n-2)*(2*k+1) + 1
	return c, c <= limit && c >= 0
}

// AtMostK appends the clauses of Σ lits ≤ k to dst and returns it, in the
// sequential-counter encoding LT_{n,k} of Sinz (CP 2005): O(n·k) clauses and
// auxiliary variables, arc-consistent under unit propagation.
//
// firstFresh is the first of CardFreshVars(len(lits), k) consecutive
// fresh variables used as sequential-counter registers; register s[i][j]
// ("at least j+1 of the first i+1 inputs are true") is variable
// firstFresh + i·k + j. guard, unless sat.LitUndef, is appended verbatim as
// the last literal of every clause: cardinality circuits are one-directional
// constraints (not equivalences), so scoped constraints carry the scope's
// negated selector and stop binding when the scope is popped.
//
// Degenerate bounds mirror the solver encoder exactly: k ≥ n emits nothing,
// k < 0 emits the (guarded) empty clause, k = 0 emits one (guarded) unit per
// input. Each returned clause is freshly allocated; dst may be nil.
func AtMostK(dst [][]sat.Lit, lits []sat.Lit, k int, firstFresh sat.Var, guard sat.Lit) [][]sat.Lit {
	var a Arena
	return appendCopies(dst, a.AtMostK(lits, k, firstFresh, guard))
}

// appendCopies appends a fresh copy of each src clause to dst, detaching the
// package-level derivation functions from the scratch arena they build in.
func appendCopies(dst, src [][]sat.Lit) [][]sat.Lit {
	for _, cl := range src {
		dst = append(dst, append([]sat.Lit(nil), cl...))
	}
	return dst
}

// Arena derives definitional clauses into a reusable buffer: every literal of
// a derivation lands in one backing slice and the returned clauses are
// sub-slices of it, so repeated derivation through the same Arena settles
// into zero allocations. The returned clauses are valid only until the next
// derivation on the same Arena — callers that need them longer must copy
// (sat.Solver.AddClause and the proof checker both copy on ingest).
//
// The zero value is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	lits  []sat.Lit
	ends  []int
	views [][]sat.Lit
	guard sat.Lit
}

// begin resets the buffers for a new derivation; guard, unless sat.LitUndef,
// is appended to every clause closed during it.
func (a *Arena) begin(guard sat.Lit) {
	a.lits = a.lits[:0]
	a.ends = a.ends[:0]
	a.guard = guard
}

// grow pre-sizes the buffers for a derivation of nClauses clauses holding
// nLits literals in total, replacing the append-doubling growth chain (and
// its GC churn — large cardinality circuits reach hundreds of kilobytes)
// with at most one exact allocation per buffer.
func (a *Arena) grow(nClauses, nLits int) {
	if cap(a.lits) < nLits {
		a.lits = make([]sat.Lit, 0, nLits)
	}
	if cap(a.ends) < nClauses {
		a.ends = make([]int, 0, nClauses)
	}
	if cap(a.views) < nClauses {
		a.views = make([][]sat.Lit, 0, nClauses)
	}
}

// push appends one literal to the clause currently being built.
func (a *Arena) push(l sat.Lit) { a.lits = append(a.lits, l) }

// close seals the clause currently being built, appending the guard first.
func (a *Arena) close() {
	if a.guard != sat.LitUndef {
		a.lits = append(a.lits, a.guard)
	}
	a.ends = append(a.ends, len(a.lits))
}

// clause emits one complete clause.
func (a *Arena) clause(ls ...sat.Lit) {
	a.lits = append(a.lits, ls...)
	a.close()
}

// finish materializes the clause views. This must happen after all literals
// are in place: growing the backing slice mid-derivation may move it, so
// views taken earlier would dangle.
func (a *Arena) finish() [][]sat.Lit {
	a.views = a.views[:0]
	start := 0
	for _, end := range a.ends {
		a.views = append(a.views, a.lits[start:end:end])
		start = end
	}
	return a.views
}

// GateClauses is the arena-backed equivalent of the package-level
// GateClauses: same clauses in the same order, but the returned slices alias
// the arena and are invalidated by its next derivation.
func (a *Arena) GateClauses(g Gate, out sat.Lit, inputs []sat.Lit) [][]sat.Lit {
	a.begin(sat.LitUndef)
	a.grow(GateClauseCount(g, len(inputs)), 3*len(inputs)+1)
	switch g {
	case GateTrue:
		a.clause(out)
	case GateAnd:
		for _, in := range inputs {
			a.clause(out.Not(), in)
		}
		a.push(out)
		for _, in := range inputs {
			a.push(in.Not())
		}
		a.close()
	case GateOr:
		for _, in := range inputs {
			a.clause(out, in.Not())
		}
		a.push(out.Not())
		for _, in := range inputs {
			a.push(in)
		}
		a.close()
	default:
		panic(fmt.Sprintf("cnf: unknown gate %d", uint8(g)))
	}
	return a.finish()
}

// AtMostK is the arena-backed equivalent of the package-level AtMostK: same
// clauses in the same order, but the returned slices alias the arena and are
// invalidated by its next derivation.
func (a *Arena) AtMostK(lits []sat.Lit, k int, firstFresh sat.Var, guard sat.Lit) [][]sat.Lit {
	n := len(lits)
	a.begin(guard)
	guarded := 0
	if guard != sat.LitUndef {
		guarded = 1
	}
	switch {
	case k >= n:
		return a.finish()
	case k < 0:
		a.clause()
		return a.finish()
	case k == 0:
		a.grow(n, n*(1+guarded))
		for _, l := range lits {
			a.clause(l.Not())
		}
		return a.finish()
	}
	// Pre-size for the circuit about to be derived; clauses are at most
	// 3+guard literals wide. Counts over the cap (unreachable for real
	// circuits) fall back to append growth.
	if count, ok := CardClauseCount(n, k, 1<<24); ok {
		a.grow(count, count*(3+guarded))
	}
	reg := func(i, j int) sat.Lit {
		return sat.PosLit(firstFresh + sat.Var(i*k+j))
	}
	// Base: x0 → s[0][0]; s[0][j] false for j ≥ 1.
	a.clause(lits[0].Not(), reg(0, 0))
	for j := 1; j < k; j++ {
		a.clause(reg(0, j).Not())
	}
	for i := 1; i < n-1; i++ {
		a.clause(lits[i].Not(), reg(i, 0))
		a.clause(reg(i-1, 0).Not(), reg(i, 0))
		for j := 1; j < k; j++ {
			a.clause(lits[i].Not(), reg(i-1, j-1).Not(), reg(i, j))
			a.clause(reg(i-1, j).Not(), reg(i, j))
		}
		a.clause(lits[i].Not(), reg(i-1, k-1).Not())
	}
	a.clause(lits[n-1].Not(), reg(n-2, k-1).Not())
	return a.finish()
}
