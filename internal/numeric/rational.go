// Package numeric provides exact rational arithmetic helpers and
// delta-rationals for the linear-arithmetic theory solver.
//
// Rationals come in three layers: Rat64 (machine-word, overflow-checked),
// Q (hybrid: Rat64 fast path promoting to *big.Rat on overflow), and the
// delta-rational Delta over Q. A delta-rational is a value of the form
// a + b·δ where a and b are rationals and δ is a positive infinitesimal.
// Delta-rationals give a sound representation of strict inequalities in the
// simplex solver: the strict bound x > c is handled as the non-strict bound
// x ≥ c + δ. See Dutertre & de Moura, "A Fast Linear-Arithmetic Solver for
// DPLL(T)" (CAV 2006).
package numeric

import (
	"fmt"
	"math/big"
)

// Delta is an immutable delta-rational a + b·δ over hybrid rationals. The
// zero value is the number zero. Arithmetic on unpromoted components is
// allocation-free.
type Delta struct {
	a Q // standard part
	b Q // infinitesimal coefficient
}

// DeltaFromRat returns the delta-rational r + 0·δ. The rational is not
// copied; callers must not mutate it afterwards.
func DeltaFromRat(r *big.Rat) Delta { return Delta{a: QFromRat(r)} }

// DeltaFromInt returns the delta-rational n + 0·δ.
func DeltaFromInt(n int64) Delta { return Delta{a: QFromInt(n)} }

// NewDelta returns the delta-rational a + b·δ. Neither argument is copied;
// callers must not mutate them afterwards.
func NewDelta(a, b *big.Rat) Delta { return Delta{a: QFromRat(a), b: QFromRat(b)} }

// NewDeltaQ returns the delta-rational a + b·δ over hybrid rationals.
func NewDeltaQ(a, b Q) Delta { return Delta{a: a, b: b} }

// Rat returns the standard (non-infinitesimal) part as a *big.Rat. Treat
// the result as read-only; for promoted components it is shared.
func (d Delta) Rat() *big.Rat { return d.a.Rat() }

// Inf returns the coefficient of δ as a *big.Rat (read-only).
func (d Delta) Inf() *big.Rat { return d.b.Rat() }

// StdQ returns the standard part as a hybrid rational.
func (d Delta) StdQ() Q { return d.a }

// InfQ returns the δ coefficient as a hybrid rational.
func (d Delta) InfQ() Q { return d.b }

// IsBig reports whether either component has been promoted to big.Rat.
func (d Delta) IsBig() bool { return d.a.IsBig() || d.b.IsBig() }

// Add returns d + e.
func (d Delta) Add(e Delta) Delta {
	return Delta{a: d.a.Add(e.a), b: d.b.Add(e.b)}
}

// Sub returns d − e.
func (d Delta) Sub(e Delta) Delta {
	return Delta{a: d.a.Sub(e.a), b: d.b.Sub(e.b)}
}

// Neg returns −d.
func (d Delta) Neg() Delta {
	return Delta{a: d.a.Neg(), b: d.b.Neg()}
}

// MulQ returns d scaled by the hybrid rational q.
func (d Delta) MulQ(q Q) Delta {
	return Delta{a: d.a.Mul(q), b: d.b.Mul(q)}
}

// Cmp compares d and e lexicographically on (standard part, δ coefficient),
// which is the correct order for any sufficiently small positive δ. It
// returns −1, 0 or +1.
func (d Delta) Cmp(e Delta) int {
	if c := d.a.Cmp(e.a); c != 0 {
		return c
	}
	return d.b.Cmp(e.b)
}

// IsZero reports whether d is exactly zero.
func (d Delta) IsZero() bool {
	return d.a.Sign() == 0 && d.b.Sign() == 0
}

// Eval substitutes a concrete positive value eps for δ and returns the
// resulting rational a + b·eps.
func (d Delta) Eval(eps *big.Rat) *big.Rat {
	out := new(big.Rat).Mul(d.Inf(), eps)
	return out.Add(out, d.Rat())
}

// String renders the delta-rational, e.g. "3/2 + 1·δ".
func (d Delta) String() string {
	if d.b.Sign() == 0 {
		return d.a.RatString()
	}
	return fmt.Sprintf("%s + %s·δ", d.a.RatString(), d.b.RatString())
}
