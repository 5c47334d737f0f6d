package stat

import (
	"math"
	"testing"
)

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	tests := []struct {
		x    float64
		k    int
		want float64
		tol  float64
	}{
		{3.841, 1, 0.95, 1e-3}, // 95th percentile, 1 dof
		{5.991, 2, 0.95, 1e-3}, // 95th percentile, 2 dof
		{18.307, 10, 0.95, 1e-3},
		{2.706, 1, 0.90, 1e-3},
		{0, 3, 0, 1e-12},
		{6.635, 1, 0.99, 1e-3},
	}
	for _, tc := range tests {
		got, err := ChiSquareCDF(tc.x, tc.k)
		if err != nil {
			t.Fatalf("ChiSquareCDF(%v,%d): %v", tc.x, tc.k, err)
		}
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("ChiSquareCDF(%v,%d) = %v, want %v", tc.x, tc.k, got, tc.want)
		}
	}
}

func TestChiSquareCDFMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 50; x += 0.5 {
		c, err := ChiSquareCDF(x, 7)
		if err != nil {
			t.Fatalf("CDF(%v): %v", x, err)
		}
		if c < prev {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range at %v: %v", x, c)
		}
		prev = c
	}
}

func TestChiSquareCDFNegativeAndErrors(t *testing.T) {
	if c, err := ChiSquareCDF(-5, 3); err != nil || c != 0 {
		t.Fatalf("CDF(-5,3) = %v,%v; want 0,nil", c, err)
	}
	if _, err := ChiSquareCDF(1, 0); err == nil {
		t.Fatalf("k=0 accepted")
	}
}

func TestChiSquareQuantileRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 5, 20, 44, 100} {
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
			q, err := ChiSquareQuantile(p, k)
			if err != nil {
				t.Fatalf("Quantile(%v,%d): %v", p, k, err)
			}
			c, err := ChiSquareCDF(q, k)
			if err != nil {
				t.Fatalf("CDF: %v", err)
			}
			if math.Abs(c-p) > 1e-6 {
				t.Errorf("CDF(Quantile(%v,%d)) = %v", p, k, c)
			}
		}
	}
}

func TestChiSquareQuantileErrors(t *testing.T) {
	if _, err := ChiSquareQuantile(0, 3); err == nil {
		t.Fatalf("p=0 accepted")
	}
	if _, err := ChiSquareQuantile(1, 3); err == nil {
		t.Fatalf("p=1 accepted")
	}
	if _, err := ChiSquareQuantile(0.5, 0); err == nil {
		t.Fatalf("k=0 accepted")
	}
}

func TestNormalSamplerMoments(t *testing.T) {
	s := NewNormalSampler(1234)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Sample(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean = %v, want ≈ 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("variance = %v, want ≈ 9", variance)
	}
}

func TestNormalSamplerDeterministic(t *testing.T) {
	a, b := NewNormalSampler(7), NewNormalSampler(7)
	for i := 0; i < 5; i++ {
		if x, y := a.Sample(0, 1), b.Sample(0, 1); x != y {
			t.Fatalf("sampler not deterministic at %d: %v vs %v", i, x, y)
		}
	}
}
