// Package mat provides small dense linear-algebra primitives used by the
// machine-learning surrogates in this repository: dense matrices, vector
// helpers, Cholesky and QR factorizations, and linear-system solvers.
//
// The package is intentionally minimal and allocation-conscious; it is not a
// general BLAS replacement. Matrices are stored row-major.
package mat

import (
	"errors"
	"fmt"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned when matrix dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// NewDense allocates an r-by-c zero matrix. If data is non-nil it must have
// length r*c and is used directly (not copied).
func NewDense(r, c int, data []float64) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns the backing slice of row i without copying. The caller must
// not grow the slice.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of bounds")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// AddDiag adds v to every diagonal element in place (ridge regularization).
func (m *Dense) AddDiag(v float64) *Dense {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: sqdist length mismatch")
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
