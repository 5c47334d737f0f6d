package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatalf("ragged rows accepted, want error")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape wrong")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul wrong at %d,%d: %v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewDense(3, 3)); err == nil {
		t.Fatalf("dimension mismatch accepted")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != -2 || v[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
}

func TestSolveLUKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := a.SolveLU([]float64{5, 10})
	if err != nil {
		t.Fatalf("SolveLU: %v", err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.SolveLU([]float64{1, 2}); err == nil {
		t.Fatalf("singular system solved, want error")
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Leading zero pivot requires row exchange.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := a.SolveLU([]float64{2, 3})
	if err != nil {
		t.Fatalf("SolveLU: %v", err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]float64
		want int
	}{
		{"full", [][]float64{{1, 0}, {0, 1}}, 2},
		{"deficient", [][]float64{{1, 2}, {2, 4}}, 1},
		{"zero", [][]float64{{0, 0}, {0, 0}}, 0},
		{"tall", [][]float64{{1, 0}, {0, 1}, {1, 1}}, 2},
		{"wide", [][]float64{{1, 2, 3}}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := FromRows(tc.rows)
			if got := m.Rank(1e-9); got != tc.want {
				t.Fatalf("Rank = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestVectorHelpers(t *testing.T) {
	s, err := SubVec([]float64{3, 4}, []float64{1, 1})
	if err != nil || s[0] != 2 || s[1] != 3 {
		t.Fatalf("SubVec = %v, %v", s, err)
	}
	if _, err := SubVec([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatalf("Norm2 wrong")
	}
}

// Property: solving A·x = b then multiplying back recovers b, for random
// well-conditioned systems.
func TestSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := a.SolveLU(b)
		if err != nil {
			return false
		}
		back, err := a.MulVec(x)
		if err != nil {
			return false
		}
		diff, _ := SubVec(back, b)
		return Norm2(diff) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("round-trip property failed: %v", err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ on random shapes.
func TestTransposeProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := NewDense(m, k)
		b := NewDense(k, n)
		for i := 0; i < m*k; i++ {
			a.data[i] = r.NormFloat64()
		}
		for i := 0; i < k*n; i++ {
			b.data[i] = r.NormFloat64()
		}
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		left := ab.Transpose()
		right, err := b.Transpose().Mul(a.Transpose())
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !almostEqual(left.At(i, j), right.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatalf("transpose-product property failed: %v", err)
	}
}

func TestScaleRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := m.ScaleRows([]float64{2, 10}); err != nil {
		t.Fatalf("ScaleRows: %v", err)
	}
	if m.At(0, 1) != 4 || m.At(1, 0) != 30 {
		t.Fatalf("ScaleRows wrong: %v %v", m.At(0, 1), m.At(1, 0))
	}
	if _, err := m.ScaleRows([]float64{1}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
}

func TestNullSpace(t *testing.T) {
	// Rank-1 2x3 matrix: null space dimension 2.
	m, _ := FromRows([][]float64{{1, 2, 3}, {2, 4, 6}})
	basis := m.NullSpace(1e-9)
	if len(basis) != 2 {
		t.Fatalf("null space dim = %d, want 2", len(basis))
	}
	for _, v := range basis {
		out, err := m.MulVec(v)
		if err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		if Norm2(out) > 1e-9 {
			t.Fatalf("basis vector %v not in null space (residual %v)", v, Norm2(out))
		}
	}
	// Full-rank square: empty null space.
	id, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	if len(id.NullSpace(1e-9)) != 0 {
		t.Fatalf("identity has nontrivial null space")
	}
	// Zero matrix: full-dimensional null space.
	z := NewDense(2, 3)
	if len(z.NullSpace(1e-9)) != 3 {
		t.Fatalf("zero matrix null space wrong")
	}
}

func TestNullSpaceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(6)
		m := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float64(rng.Intn(7)-3))
			}
		}
		basis := m.NullSpace(1e-9)
		if len(basis) != cols-m.Rank(1e-9) {
			t.Fatalf("trial %d: dim %d, want %d", trial, len(basis), cols-m.Rank(1e-9))
		}
		for _, v := range basis {
			out, err := m.MulVec(v)
			if err != nil {
				t.Fatalf("MulVec: %v", err)
			}
			if Norm2(out) > 1e-8 {
				t.Fatalf("trial %d: basis vector not annihilated", trial)
			}
		}
	}
}
