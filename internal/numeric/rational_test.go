package numeric

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func r(n, d int64) *big.Rat { return big.NewRat(n, d) }

func TestZeroValueDelta(t *testing.T) {
	var d Delta
	if !d.IsZero() {
		t.Fatalf("zero value not zero")
	}
	if d.Rat().Sign() != 0 || d.Inf().Sign() != 0 {
		t.Fatalf("zero value components nonzero")
	}
	if d.String() != "0" {
		t.Fatalf("String() = %q, want 0", d.String())
	}
}

func TestDeltaArithmetic(t *testing.T) {
	a := NewDelta(r(3, 2), r(1, 1)) // 3/2 + δ
	b := NewDelta(r(1, 2), r(-2, 1))
	sum := a.Add(b)
	if sum.Rat().Cmp(r(2, 1)) != 0 || sum.Inf().Cmp(r(-1, 1)) != 0 {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff := a.Sub(b)
	if diff.Rat().Cmp(r(1, 1)) != 0 || diff.Inf().Cmp(r(3, 1)) != 0 {
		t.Fatalf("Sub wrong: %v", diff)
	}
	neg := a.Neg()
	if neg.Rat().Cmp(r(-3, 2)) != 0 || neg.Inf().Cmp(r(-1, 1)) != 0 {
		t.Fatalf("Neg wrong: %v", neg)
	}
	scaled := a.MulQ(QFromFrac(2, 3))
	if scaled.Rat().Cmp(r(1, 1)) != 0 || scaled.Inf().Cmp(r(2, 3)) != 0 {
		t.Fatalf("MulQ wrong: %v", scaled)
	}
}

func TestDeltaCmpLexicographic(t *testing.T) {
	// 1 < 1 + δ < 1 + 2δ < 2 − δ < 2.
	seq := []Delta{
		DeltaFromInt(1),
		NewDelta(r(1, 1), r(1, 1)),
		NewDelta(r(1, 1), r(2, 1)),
		NewDelta(r(2, 1), r(-1, 1)),
		DeltaFromInt(2),
	}
	for i := 0; i < len(seq)-1; i++ {
		if seq[i].Cmp(seq[i+1]) >= 0 {
			t.Fatalf("ordering broken at %d: %v !< %v", i, seq[i], seq[i+1])
		}
		if seq[i+1].Cmp(seq[i]) <= 0 {
			t.Fatalf("reverse ordering broken at %d", i)
		}
	}
	if seq[0].Cmp(DeltaFromInt(1)) != 0 {
		t.Fatalf("equality broken")
	}
}

func TestDeltaEval(t *testing.T) {
	d := NewDelta(r(1, 1), r(-3, 1))
	got := d.Eval(r(1, 6))
	if got.Cmp(r(1, 2)) != 0 {
		t.Fatalf("Eval = %v, want 1/2", got)
	}
}

func TestConstructors(t *testing.T) {
	if DeltaFromRat(r(5, 3)).Rat().Cmp(r(5, 3)) != 0 {
		t.Fatalf("DeltaFromRat wrong")
	}
}

func randDelta(rng *rand.Rand) Delta {
	return NewDelta(
		big.NewRat(int64(rng.Intn(41)-20), int64(rng.Intn(9)+1)),
		big.NewRat(int64(rng.Intn(41)-20), int64(rng.Intn(9)+1)),
	)
}

// Property: Add/Sub are inverse, Neg is an involution, Cmp is antisymmetric.
func TestDeltaAlgebraicLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		a, b := randDelta(lr), randDelta(lr)
		if a.Add(b).Sub(b).Cmp(a) != 0 {
			return false
		}
		if a.Neg().Neg().Cmp(a) != 0 {
			return false
		}
		if a.Cmp(b) != -b.Cmp(a) {
			return false
		}
		// Addition is monotone: a < b → a + c < b + c.
		c := randDelta(lr)
		if a.Cmp(b) < 0 && a.Add(c).Cmp(b.Add(c)) >= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatalf("algebraic laws failed: %v", err)
	}
}

// Property: Cmp agrees with Eval for sufficiently small positive δ.
func TestDeltaCmpMatchesSmallEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eps := r(1, 1000000000)
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		a, b := randDelta(lr), randDelta(lr)
		want := a.Eval(eps).Cmp(b.Eval(eps))
		return a.Cmp(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatalf("Cmp/Eval agreement failed: %v", err)
	}
}

func TestImmutability(t *testing.T) {
	a := NewDelta(r(1, 1), r(1, 1))
	b := NewDelta(r(2, 1), r(2, 1))
	_ = a.Add(b)
	_ = a.MulQ(QFromInt(5))
	if a.Rat().Cmp(r(1, 1)) != 0 || b.Rat().Cmp(r(2, 1)) != 0 {
		t.Fatalf("operations mutated operands")
	}
}
