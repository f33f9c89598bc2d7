// Package lsi implements the Latent Semantic Indexing tool SmartStore
// uses to measure semantic correlation between file metadata (paper
// §3.1.1).
//
// An attribute–item matrix A (t attributes × n items) is decomposed with
// the SVD, A = U Σ Vᵀ, and truncated to its p largest singular values,
// Ap = Up Σp Vpᵀ. Each item is then represented by its p-dimensional
// coordinates (a row of Vp Σp). Correlation between items in the
// semantic space decays with their Euclidean distance
// (DistanceCorrelation).
package lsi

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/matrix"
)

// parallelThreshold is the item count above which pairwise matrices are
// computed with a worker per core. Below it, goroutine overhead exceeds
// the arithmetic.
const parallelThreshold = 64

// forEachRow runs fn(i) for i in [0, n), fanning out across cores when
// n is large. Work is index-addressed, so the result is identical to
// the sequential loop.
func forEachRow(n int, fn func(i int)) {
	if n < parallelThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Model is a fitted LSI model over n items, truncated to rank p.
type Model struct {
	n, p  int
	items *matrix.Dense // n×p: row i = item i's semantic coordinates (Vp Σp)
}

// DefaultRank picks the truncation rank for a t×n matrix: enough to keep
// most variance while projecting into a genuinely lower-dimensional
// subspace. The paper leaves p unspecified; min(t, n, 4) reflects that
// metadata attribute spaces have low intrinsic dimensionality.
func DefaultRank(t, n int) int {
	p := 4
	if t < p {
		p = t
	}
	if n < p {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Fit builds an LSI model from item vectors: vectors[i] is item i's
// t-dimensional attribute vector. rank ≤ 0 selects DefaultRank. Fit
// returns an error when the inputs are empty or ragged.
func Fit(vectors [][]float64, rank int) (*Model, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("lsi: no items")
	}
	t := len(vectors[0])
	if t == 0 {
		return nil, fmt.Errorf("lsi: zero-dimensional items")
	}
	for i, v := range vectors {
		if len(v) != t {
			return nil, fmt.Errorf("lsi: item %d has %d dims, want %d", i, len(v), t)
		}
	}
	if rank <= 0 {
		rank = DefaultRank(t, n)
	}

	// A is t×n with items as columns.
	a := matrix.NewDense(t, n)
	for j, v := range vectors {
		for i, x := range v {
			a.Set(i, j, x)
		}
	}
	svd, err := matrix.ComputeSVD(a)
	if err != nil && err != matrix.ErrNoConvergence {
		return nil, err
	}
	svd = svd.Truncate(rank)
	p := len(svd.Sigma)

	// Item coordinates: rows of Vp scaled by Σp.
	items := matrix.NewDense(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			items.Set(i, j, svd.V.At(i, j)*svd.Sigma[j])
		}
	}
	return &Model{n: n, p: p, items: items}, nil
}

// Rank returns the truncation rank p actually used.
func (m *Model) Rank() int { return m.p }

// ItemVector returns item i's p-dimensional semantic coordinates.
func (m *Model) ItemVector(i int) []float64 {
	return m.items.Row(i)
}

// DistanceCorrelation maps the Euclidean distance between two
// semantic-space vectors to a correlation value in [0, 1]:
// exp(−‖a−b‖). It is the smooth counterpart of the §1.1 semantic
// correlation measure (which is defined through Euclidean distance to
// group centroids): identical vectors score 1, and the score decays
// continuously with distance. Grouping admission thresholds compare
// against this value, which — unlike cosine in a rank-2 subspace —
// spreads over the whole unit interval.
func DistanceCorrelation(a, b []float64) float64 {
	var s float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-math.Sqrt(s))
}

// PairwiseDistanceCorrelations returns the n×n matrix of
// DistanceCorrelation values between item coordinates — the correlation
// values the semantic grouping algorithm thresholds (§3.1.2). Rows are
// computed in parallel across cores for large n; the result is
// deterministic.
func (m *Model) PairwiseDistanceCorrelations() *matrix.Dense {
	out := matrix.NewDense(m.n, m.n)
	rows := make([][]float64, m.n)
	for i := 0; i < m.n; i++ {
		rows[i] = m.items.Row(i)
	}
	forEachRow(m.n, func(i int) {
		out.Set(i, i, 1)
		for j := i + 1; j < m.n; j++ {
			out.Set(i, j, DistanceCorrelation(rows[i], rows[j]))
		}
	})
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out
}
