// Package matrix provides the dense linear algebra needed by the state
// estimation substrate: matrix products, LU factorization with partial
// pivoting, linear solves, and numerical rank. It is deliberately small and
// dependency-free; the problem sizes in this repository (up to ~1100×300
// Jacobians for the 300-bus system) are comfortably dense.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("matrix: singular system")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equally long.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns m·other.
func (m *Dense) Mul(other *Dense) (*Dense, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("matrix: size mismatch %dx%d · %dx%d", m.rows, m.cols, other.rows, other.cols)
	}
	out := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowOut := out.data[i*other.cols : (i+1)*other.cols]
			rowOther := other.data[k*other.cols : (k+1)*other.cols]
			for j := range rowOther {
				rowOut[j] += a * rowOther[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: size mismatch %dx%d · vec[%d]", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		sum := 0.0
		for j, a := range row {
			sum += a * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// ScaleRows multiplies each row i by w[i] (in place) and returns m.
func (m *Dense) ScaleRows(w []float64) (*Dense, error) {
	if len(w) != m.rows {
		return nil, fmt.Errorf("matrix: weight length %d, want %d", len(w), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] *= w[i]
		}
	}
	return m, nil
}

// SolveLU solves the square system m·x = b via LU with partial pivoting.
// m is not modified.
func (m *Dense) SolveLU(b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: SolveLU on non-square %dx%d", m.rows, m.cols)
	}
	if len(b) != m.rows {
		return nil, fmt.Errorf("matrix: rhs length %d, want %d", len(b), m.rows)
	}
	n := m.rows
	lu := m.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > maxAbs {
				maxAbs, pivot = a, r
			}
		}
		if maxAbs < 1e-13 {
			return nil, ErrSingular
		}
		if pivot != col {
			lu.swapRows(pivot, col)
			perm[pivot], perm[col] = perm[col], perm[pivot]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			if f == 0 {
				continue
			}
			lu.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(col, c))
			}
		}
	}
	// Forward substitution with permuted rhs.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[perm[i]]
		for j := 0; j < i; j++ {
			sum -= lu.At(i, j) * x[j]
		}
		x[i] = sum
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= lu.At(i, j) * x[j]
		}
		x[i] = sum / lu.At(i, i)
	}
	return x, nil
}

func (m *Dense) swapRows(a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// Rank returns the numerical rank of m using Gaussian elimination with full
// row pivoting and the given tolerance on pivot magnitude.
func (m *Dense) Rank(tol float64) int {
	work := m.Clone()
	rank := 0
	row := 0
	for col := 0; col < work.cols && row < work.rows; col++ {
		pivot := -1
		maxAbs := tol
		for r := row; r < work.rows; r++ {
			if a := math.Abs(work.At(r, col)); a > maxAbs {
				maxAbs, pivot = a, r
			}
		}
		if pivot < 0 {
			continue
		}
		work.swapRows(pivot, row)
		inv := 1 / work.At(row, col)
		for r := row + 1; r < work.rows; r++ {
			f := work.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < work.cols; c++ {
				work.Set(r, c, work.At(r, c)-f*work.At(row, c))
			}
		}
		rank++
		row++
	}
	return rank
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// SubVec returns a − b.
func SubVec(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("matrix: vector length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}
