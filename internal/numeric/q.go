package numeric

import "math/big"

// Q is a hybrid exact rational: a Rat64 fast path that transparently
// promotes to *big.Rat when an operation overflows int64. Values are
// immutable; operations return new values and never mutate operands, so a
// promoted Q may safely share its big.Rat with other values.
//
// The zero value is the number 0. Arithmetic on unpromoted values is
// allocation-free; the simplex hot loops depend on this.
type Q struct {
	s Rat64
	b *big.Rat // non-nil means promoted; s is then unused
}

// forceBig routes every Q operation through the big.Rat slow path and
// disables demotion. It exists solely so tests can compare the hybrid
// arithmetic against a pure big.Rat run of the same computation; it must
// never be set outside tests.
var forceBig bool

// SetForceBig toggles the pure-big.Rat test mode and returns the previous
// setting. Test-only; not safe for concurrent use with live solvers.
func SetForceBig(v bool) bool {
	prev := forceBig
	forceBig = v
	return prev
}

// QFromInt returns the rational n.
func QFromInt(n int64) Q { return Q{s: Rat64{Num: n, Den: 1}} }

// QFromFrac returns num/den, promoting when normalization overflows.
// den must be nonzero.
func QFromFrac(num, den int64) Q {
	if !forceBig {
		if r, ok := MakeRat64(num, den); ok {
			return Q{s: r}
		}
	}
	return Q{b: big.NewRat(num, den)}
}

// QFromRat converts a big rational, demoting to the fast path when both
// components fit in int64. The rational is not copied; the caller must not
// mutate it afterwards.
func QFromRat(r *big.Rat) Q {
	if r == nil {
		return Q{}
	}
	if !forceBig && r.Num().IsInt64() && r.Denom().IsInt64() {
		// big.Rat is always normalized with a positive denominator.
		return Q{s: Rat64{Num: r.Num().Int64(), Den: r.Denom().Int64()}}
	}
	return Q{b: r}
}

// qDemote wraps a freshly allocated big.Rat result, demoting it back to
// the fast path when it fits so one transient overflow does not poison all
// downstream arithmetic.
func qDemote(r *big.Rat) Q {
	if !forceBig && r.Num().IsInt64() && r.Denom().IsInt64() {
		return Q{s: Rat64{Num: r.Num().Int64(), Den: r.Denom().Int64()}}
	}
	return Q{b: r}
}

// IsBig reports whether q is carried by big.Rat (promoted) rather than the
// int64 fast path.
func (q Q) IsBig() bool { return q.b != nil }

// Small returns q's machine-word representation (in lowest terms, with a
// positive denominator) and true when q is carried by the fast path, or a
// zero Rat64 and false when q is promoted. Serializers use it to emit small
// rationals as two integers instead of text.
func (q Q) Small() (Rat64, bool) {
	if q.b != nil {
		return Rat64{}, false
	}
	return Rat64{Num: q.s.Num, Den: q.s.den()}, true
}

// Rat returns q as a *big.Rat. For promoted values this is the shared
// internal rational: treat it as read-only. For fast-path values a fresh
// rational is allocated.
func (q Q) Rat() *big.Rat {
	if q.b != nil {
		return q.b
	}
	return big.NewRat(q.s.Num, q.s.den())
}

// Sign returns −1, 0 or +1.
func (q Q) Sign() int {
	if q.b != nil {
		return q.b.Sign()
	}
	return q.s.Sign()
}

// IsZero reports whether q is exactly zero.
func (q Q) IsZero() bool { return q.Sign() == 0 }

// Cmp compares q and o, returning −1, 0 or +1. The fast-path comparison is
// allocation-free (128-bit cross products).
func (q Q) Cmp(o Q) int {
	if q.b == nil && o.b == nil {
		return q.s.Cmp(o.s)
	}
	return q.Rat().Cmp(o.Rat())
}

// Add returns q + o.
func (q Q) Add(o Q) Q {
	if !forceBig && q.b == nil && o.b == nil {
		if r, ok := q.s.Add(o.s); ok {
			return Q{s: r}
		}
	}
	return qDemote(new(big.Rat).Add(q.Rat(), o.Rat()))
}

// Sub returns q − o.
func (q Q) Sub(o Q) Q {
	if !forceBig && q.b == nil && o.b == nil {
		if r, ok := q.s.Sub(o.s); ok {
			return Q{s: r}
		}
	}
	return qDemote(new(big.Rat).Sub(q.Rat(), o.Rat()))
}

// Mul returns q·o.
func (q Q) Mul(o Q) Q {
	if !forceBig && q.b == nil && o.b == nil {
		if r, ok := q.s.Mul(o.s); ok {
			return Q{s: r}
		}
	}
	return qDemote(new(big.Rat).Mul(q.Rat(), o.Rat()))
}

// MulNeg returns −(q·o) with a single allocation on the promoted path; the
// simplex row-substitution loop uses it in place of Mul-then-Neg.
func (q Q) MulNeg(o Q) Q {
	if !forceBig && q.b == nil && o.b == nil {
		if r, ok := q.s.Mul(o.s); ok {
			if n, ok := r.Neg(); ok {
				return Q{s: n}
			}
		}
	}
	out := new(big.Rat).Mul(q.Rat(), o.Rat())
	return qDemote(out.Neg(out))
}

// Neg returns −q.
func (q Q) Neg() Q {
	if !forceBig && q.b == nil {
		if r, ok := q.s.Neg(); ok {
			return Q{s: r}
		}
	}
	return qDemote(new(big.Rat).Neg(q.Rat()))
}

// Inv returns 1/q. Inverting zero panics, as with big.Rat.
func (q Q) Inv() Q {
	if !forceBig && q.b == nil {
		if r, ok := q.s.Inv(); ok {
			return Q{s: r}
		}
	}
	if q.Sign() == 0 {
		panic("numeric: division by zero")
	}
	return qDemote(new(big.Rat).Inv(q.Rat()))
}

// Abs returns |q|.
func (q Q) Abs() Q {
	if q.Sign() >= 0 {
		return q
	}
	return q.Neg()
}

// RatString renders q in num/den form, matching big.Rat.RatString.
func (q Q) RatString() string {
	if q.b != nil {
		return q.b.RatString()
	}
	return big.NewRat(q.s.Num, q.s.den()).RatString()
}

// String implements fmt.Stringer.
func (q Q) String() string { return q.RatString() }
