// Package matrix provides the dense linear-algebra substrate used by the
// LSI semantic-analysis layer: a row-major dense matrix type and a
// one-sided Jacobi singular value decomposition.
//
// The package is intentionally small and dependency-free (stdlib only).
// Matrices in this system are modest — attribute-item matrices with at
// most a few dozen rows (attributes) and a few thousand columns (files or
// storage units) — so a robust O(n·m²) Jacobi SVD is both simple and fast
// enough, and avoids the numerical fragility of hand-rolled QR iteration.
package matrix

import (
	"errors"
	"fmt"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense returns a zeroed r×c matrix.
// It panics if r or c is not positive.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// ErrNoConvergence reports that the Jacobi sweep limit was reached before
// the off-diagonal mass fell under tolerance. The decomposition returned
// alongside it is still usable but of reduced accuracy.
var ErrNoConvergence = errors.New("matrix: SVD did not converge")
