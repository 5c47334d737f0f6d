// Package lpbuild holds the small LP-construction helpers shared by the
// exact-rational linear programs in this repository: the DC-OPF dispatch
// optimizer (internal/dcopf) and the UFDI model's LP relaxation, the
// screening tier (internal/core). Both build on the internal/lra simplex
// and need the same float→rational quantization, bounded-variable idioms
// and line/bus-flow row shapes; keeping one copy here keeps their
// arithmetic identical. AdmittanceRat is also what the UFDI model's SMT
// encoding uses. The exact evaluator reads the same rational as a
// numeric.Q (grid.System.ExactAdmittance): both derive from the one
// admittance rounding, grid.ExactAdmittance, which the screen's soundness
// contract depends on.
package lpbuild

import (
	"math/big"

	"segrid/internal/grid"
	"segrid/internal/lra"
	"segrid/internal/numeric"
)

// Rat converts a float to an exact rational with 1e-9 quantization —
// plenty for p.u. quantities and small enough to keep the exact
// arithmetic in machine words.
func Rat(f float64) *big.Rat {
	return new(big.Rat).SetFrac64(int64(f*1e9+copysign(0.5, f)), 1_000_000_000)
}

func copysign(h, f float64) float64 {
	if f < 0 {
		return -h
	}
	return h
}

// AdmittanceRat converts a line admittance to an exact small rational by
// rounding to four decimals: grid.ExactAdmittance as a fresh *big.Rat. The
// paper's data has at most two decimals, so embedded cases round-trip
// exactly; keeping denominators small keeps the exact simplex arithmetic
// fast. Both lowerings of the UFDI model in internal/core and its exact
// evaluator MUST read this one rounding: the screen's definitive verdicts
// transfer to the full model only when both talk about the same rational
// admittances.
func AdmittanceRat(y float64) *big.Rat {
	return new(big.Rat).Set(grid.ExactAdmittance(y).Rat())
}

// Fix asserts v = b (a lower and an upper bound at the same value), both
// carrying tag. It returns the first conflict explanation, if any, while
// the simplex's LastFarkas still describes it.
func Fix(s *lra.Simplex, v int, b numeric.Delta, tag lra.Tag) []lra.Tag {
	if conflict := s.AssertLower(v, b, tag); conflict != nil {
		return conflict
	}
	return s.AssertUpper(v, b, tag)
}

// Box asserts lo ≤ v ≤ hi with per-side tags, returning the first conflict
// explanation, if any.
func Box(s *lra.Simplex, v int, lo, hi numeric.Delta, loTag, hiTag lra.Tag) []lra.Tag {
	if conflict := s.AssertLower(v, lo, loTag); conflict != nil {
		return conflict
	}
	return s.AssertUpper(v, hi, hiTag)
}

// SymmetricBound asserts |v| ≤ lim (−lim ≤ v ≤ +lim) with per-side tags,
// returning the first conflict explanation, if any.
func SymmetricBound(s *lra.Simplex, v int, lim *big.Rat, loTag, hiTag lra.Tag) []lra.Tag {
	lo := numeric.DeltaFromRat(new(big.Rat).Neg(lim))
	return Box(s, v, lo, numeric.DeltaFromRat(lim), loTag, hiTag)
}

// LineFlowTerms is the DC flow row of one line: y·θ_from − y·θ_to over the
// given 1-based angle-variable table.
func LineFlowTerms(theta []int, ln grid.Line, y *big.Rat) []lra.Term {
	return []lra.Term{
		{Var: theta[ln.From], Coeff: y},
		{Var: theta[ln.To], Coeff: new(big.Rat).Neg(y)},
	}
}

// BusFlowTerms is the net-inflow row of bus j: Σ incoming flows − Σ
// outgoing flows over the given 1-based flow-variable table. Callers
// append their own source/consumption terms (generation for dcopf; nothing
// for the screen, whose flow variables are already deltas).
func BusFlowTerms(sys *grid.System, flow []int, j int) []lra.Term {
	var terms []lra.Term
	for _, id := range sys.InLines(j) {
		terms = append(terms, lra.Term{Var: flow[id], Coeff: big.NewRat(1, 1)})
	}
	for _, id := range sys.OutLines(j) {
		terms = append(terms, lra.Term{Var: flow[id], Coeff: big.NewRat(-1, 1)})
	}
	return terms
}
