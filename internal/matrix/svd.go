package matrix

import (
	"math"
	"sort"
)

// SVD holds a (thin) singular value decomposition A = U Σ Vᵀ where A is
// m×n, U is m×r, V is n×r, and Σ = diag(Sigma) with r = min(m, n).
// Singular values are sorted in decreasing order; columns of U and V are
// ordered to match.
type SVD struct {
	U     *Dense    // m×r, orthonormal columns
	Sigma []float64 // r singular values, descending
	V     *Dense    // n×r, orthonormal columns
}

const (
	svdMaxSweeps = 60
	svdTol       = 1e-12
)

// ComputeSVD computes the thin SVD of a by one-sided Jacobi rotations.
//
// The method orthogonalizes pairs of columns of a working copy W of A (or
// Aᵀ when m < n, swapping the roles of U and V afterwards). On exit the
// columns of W equal uᵢσᵢ; normalizing yields U and the singular values,
// and accumulating the rotations yields V. One-sided Jacobi is backward
// stable and computes even tiny singular values to high relative
// accuracy, which matters because LSI truncates on their magnitudes.
//
// ComputeSVD returns ErrNoConvergence if the off-diagonal mass has not
// fallen below tolerance after a fixed number of sweeps; the
// decomposition returned with it is the best iterate and remains usable.
func ComputeSVD(a *Dense) (*SVD, error) {
	if a.rows >= a.cols {
		return jacobiSVD(a)
	}
	// For wide matrices decompose the transpose and swap factors:
	// Aᵀ = U Σ Vᵀ  ⇒  A = V Σ Uᵀ.
	s, err := jacobiSVD(a.T())
	if err != nil && err != ErrNoConvergence {
		return nil, err
	}
	return &SVD{U: s.V, Sigma: s.Sigma, V: s.U}, err
}

// jacobiSVD runs one-sided Jacobi on a tall (m ≥ n) matrix.
func jacobiSVD(a *Dense) (*SVD, error) {
	m, n := a.rows, a.cols
	w := a.Clone() // working copy whose columns converge to uᵢσᵢ
	v := eye(n)

	var err error
	converged := false
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Gram entries for the (p,q) column pair.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					cp := w.data[i*n+p]
					cq := w.data[i*n+q]
					app += cp * cp
					aqq += cq * cq
					apq += cp * cq
				}
				if math.Abs(apq) <= svdTol*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq

				// Jacobi rotation zeroing the (p,q) Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t

				for i := 0; i < m; i++ {
					cp := w.data[i*n+p]
					cq := w.data[i*n+q]
					w.data[i*n+p] = c*cp - s*cq
					w.data[i*n+q] = s*cp + c*cq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			converged = true
			break
		}
	}
	if !converged {
		err = ErrNoConvergence
	}

	// Column norms are the singular values.
	sigma := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			x := w.data[i*n+j]
			s += x * x
		}
		sigma[j] = math.Sqrt(s)
	}

	// Sort descending, permuting U and V columns alike.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return sigma[idx[x]] > sigma[idx[y]] })

	u := NewDense(m, n)
	vOut := NewDense(n, n)
	sOut := make([]float64, n)
	for newJ, oldJ := range idx {
		sOut[newJ] = sigma[oldJ]
		if sigma[oldJ] > 0 {
			inv := 1 / sigma[oldJ]
			for i := 0; i < m; i++ {
				u.data[i*n+newJ] = w.data[i*n+oldJ] * inv
			}
		}
		for i := 0; i < n; i++ {
			vOut.data[i*n+newJ] = v.data[i*n+oldJ]
		}
	}
	return &SVD{U: u, Sigma: sOut, V: vOut}, err
}

// Truncate returns the rank-p decomposition: the first p columns of U and
// V and the first p singular values. If p exceeds the available rank it
// is clamped.
func (s *SVD) Truncate(p int) *SVD {
	r := len(s.Sigma)
	if p >= r {
		return s
	}
	if p < 1 {
		p = 1
	}
	return &SVD{
		U:     firstCols(s.U, p),
		Sigma: append([]float64(nil), s.Sigma[:p]...),
		V:     firstCols(s.V, p),
	}
}

func firstCols(m *Dense, p int) *Dense {
	out := NewDense(m.rows, p)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*p:(i+1)*p], m.data[i*m.cols:i*m.cols+p])
	}
	return out
}

func eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
