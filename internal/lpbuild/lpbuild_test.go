package lpbuild

import (
	"math/big"
	"testing"

	"segrid/internal/grid"
)

// TestAdmittanceRatMatchesSystem checks the package's MUST-share contract:
// the rational the SMT encoding and the LP relaxation build from
// (AdmittanceRat) equals the one the exact evaluator reads
// (grid.System.ExactAdmittance) and the rounding both derive from
// (grid.ExactAdmittance), on every line of every built-in case.
func TestAdmittanceRatMatchesSystem(t *testing.T) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118", "ieee300"} {
		sys, err := grid.Case(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range sys.Lines {
			r := AdmittanceRat(ln.Admittance)
			if q := sys.ExactAdmittance(ln.ID); q.Rat().Cmp(r) != 0 {
				t.Fatalf("%s line %d: AdmittanceRat %s, System.ExactAdmittance %s", name, ln.ID, r.RatString(), q.RatString())
			}
			if q := grid.ExactAdmittance(ln.Admittance); q.Rat().Cmp(r) != 0 {
				t.Fatalf("%s line %d: AdmittanceRat %s, grid.ExactAdmittance %s", name, ln.ID, r.RatString(), q.RatString())
			}
		}
	}
}

// TestAdmittanceRatRounding pins the one rounding on values that do not
// terminate in decimal or sit on a rounding boundary: four decimals, in
// lowest terms, the same as a rational and as a numeric.Q.
func TestAdmittanceRatRounding(t *testing.T) {
	for _, tc := range []struct {
		y    float64
		want *big.Rat
	}{
		{1.0 / 3, big.NewRat(3333, 10000)},
		{2.0 / 3, big.NewRat(6667, 10000)},
		{1 / 0.0575, big.NewRat(173913, 10000)},
		{16.90, big.NewRat(169, 10)},
		{0.00005, big.NewRat(1, 10000)},
		{7, big.NewRat(7, 1)},
	} {
		r := AdmittanceRat(tc.y)
		if r.Cmp(tc.want) != 0 {
			t.Errorf("AdmittanceRat(%v) = %s, want %s", tc.y, r.RatString(), tc.want.RatString())
		}
		if q := grid.ExactAdmittance(tc.y); q.RatString() != r.RatString() {
			t.Errorf("grid.ExactAdmittance(%v) = %s, AdmittanceRat %s", tc.y, q.RatString(), r.RatString())
		}
		if f, _ := r.Float64(); f != grid.QuantizeAdmittance(tc.y) {
			t.Errorf("AdmittanceRat(%v) = %v as a float, QuantizeAdmittance %v", tc.y, f, grid.QuantizeAdmittance(tc.y))
		}
	}
}

// TestAdmittanceRatIsFresh checks that callers own the returned rational:
// mutating it must not change the next call's answer.
func TestAdmittanceRatIsFresh(t *testing.T) {
	r := AdmittanceRat(1.0 / 3)
	r.SetInt64(42)
	if got := AdmittanceRat(1.0 / 3); got.Cmp(big.NewRat(3333, 10000)) != 0 {
		t.Fatalf("AdmittanceRat(1/3) = %s after mutating an earlier result", got.RatString())
	}
}
