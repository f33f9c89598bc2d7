package matrix

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// dense wraps row-major data in an r×c matrix without copying.
func dense(r, c int, data ...float64) *Dense { return &Dense{rows: r, cols: c, data: data} }

// The reference algebra the SVD tests check the decomposition against.

// mul returns the matrix product a*b.
func mul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

// sub returns a-b.
func sub(a, b *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// frobenius returns the Frobenius norm of m.
func frobenius(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// reconstruct returns U Σ Vᵀ, the (possibly truncated) approximation of
// the decomposed matrix.
func reconstruct(s *SVD) *Dense {
	us := s.U.Clone()
	for i := 0; i < us.rows; i++ {
		for j, sv := range s.Sigma {
			us.data[i*us.cols+j] *= sv
		}
	}
	return mul(us, s.V.T())
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.rows != 3 || m.cols != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.rows, m.cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v, want 42.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestRowColCopies(t *testing.T) {
	m := dense(2, 2, 1, 2, 3, 4)
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v, want [3 4]", r)
	}
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Fatal("Row must return a copy, not a view")
	}
}

func TestTranspose(t *testing.T) {
	m := dense(2, 3, 1, 2, 3, 4, 5, 6)
	tr := m.T()
	if tr.rows != 3 || tr.cols != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", tr.rows, tr.cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := dense(2, 3, 1, 2, 3, 4, 5, 6)
	b := dense(3, 2, 7, 8, 9, 10, 11, 12)
	p := mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Fatalf("mul[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestSubAndNorms(t *testing.T) {
	a := dense(2, 2, 3, 0, 0, 4)
	b := dense(2, 2, 0, 0, 0, 0)
	d := sub(a, b)
	if !almostEq(frobenius(d), 5, 1e-12) {
		t.Fatalf("frobenius = %v, want 5", frobenius(d))
	}
}

func TestCloneIndependent(t *testing.T) {
	a := dense(1, 2, 1, 2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func checkOrthonormalCols(t *testing.T, m *Dense, tol float64) {
	t.Helper()
	g := mul(m.T(), m)
	for i := 0; i < g.rows; i++ {
		for j := 0; j < g.cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEq(g.At(i, j), want, tol) {
				t.Fatalf("columns not orthonormal: G[%d][%d] = %v", i, j, g.At(i, j))
			}
		}
	}
}

func TestSVDIdentity(t *testing.T) {
	s, err := ComputeSVD(eye(4))
	if err != nil {
		t.Fatalf("SVD error: %v", err)
	}
	for i, sv := range s.Sigma {
		if !almostEq(sv, 1, 1e-10) {
			t.Fatalf("sigma[%d] = %v, want 1", i, sv)
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := dense(3, 3,
		3, 0, 0,
		0, 5, 0,
		0, 0, 1,
	)
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatalf("SVD error: %v", err)
	}
	want := []float64{5, 3, 1}
	for i, w := range want {
		if !almostEq(s.Sigma[i], w, 1e-10) {
			t.Fatalf("sigma[%d] = %v, want %v", i, s.Sigma[i], w)
		}
	}
}

func TestSVDReconstructionTallWideSquare(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {6, 6}, {1, 4}, {4, 1}, {2, 2}} {
		a := randomMatrix(rng, dims[0], dims[1])
		s, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("SVD %v error: %v", dims, err)
		}
		diff := sub(reconstruct(s), a)
		if rel := frobenius(diff) / frobenius(a); rel > 1e-9 {
			t.Fatalf("%v: reconstruction error %v too large", dims, rel)
		}
		checkOrthonormalCols(t, s.U, 1e-9)
		checkOrthonormalCols(t, s.V, 1e-9)
		for i := 1; i < len(s.Sigma); i++ {
			if s.Sigma[i] > s.Sigma[i-1]+1e-12 {
				t.Fatalf("%v: singular values not sorted: %v", dims, s.Sigma)
			}
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewDense(4, 3)
	u := []float64{1, 2, 3, 4}
	v := []float64{1, 1, 2}
	for i := range u {
		for j := range v {
			a.Set(i, j, u[i]*v[j])
		}
	}
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatalf("SVD error: %v", err)
	}
	if len(s.Sigma) < 2 || s.Sigma[1] > 1e-10*s.Sigma[0] {
		t.Fatalf("sigma = %v, want exactly one nonzero singular value", s.Sigma)
	}
	diff := sub(reconstruct(s), a)
	if rel := frobenius(diff) / frobenius(a); rel > 1e-9 {
		t.Fatalf("rank-1 reconstruction error %v", rel)
	}
}

func TestSVDTruncate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randomMatrix(rng, 10, 6)
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatalf("SVD error: %v", err)
	}
	for _, p := range []int{1, 3, 6, 99} {
		tr := s.Truncate(p)
		wantP := p
		if wantP > 6 {
			wantP = 6
		}
		if len(tr.Sigma) != wantP {
			t.Fatalf("Truncate(%d) kept %d values, want %d", p, len(tr.Sigma), wantP)
		}
		if tr.U.cols != wantP || tr.V.cols != wantP {
			t.Fatalf("Truncate(%d) factor widths %d/%d, want %d", p, tr.U.cols, tr.V.cols, wantP)
		}
	}
	// Eckart–Young: the rank-p truncation is the best rank-p approximation;
	// its error equals sqrt(sum of squared discarded singular values).
	tr := s.Truncate(3)
	diff := sub(reconstruct(tr), a)
	var want float64
	for _, sv := range s.Sigma[3:] {
		want += sv * sv
	}
	want = math.Sqrt(want)
	if !almostEq(frobenius(diff), want, 1e-8*(1+want)) {
		t.Fatalf("truncation error = %v, want %v", frobenius(diff), want)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	s, err := ComputeSVD(NewDense(3, 2))
	if err != nil {
		t.Fatalf("SVD error: %v", err)
	}
	for _, sv := range s.Sigma {
		if sv != 0 {
			t.Fatalf("zero matrix sigma = %v, want all zeros", s.Sigma)
		}
	}
}

// Property: for random matrices, reconstruction is accurate and singular
// values are non-negative and sorted.
func TestSVDPropertyRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		r := 1 + int(rng.Uint64()%10)
		c := 1 + int(rng.Uint64()%10)
		a := randomMatrix(rng, r, c)
		s, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		diff := sub(reconstruct(s), a)
		denom := frobenius(a)
		if denom == 0 {
			denom = 1
		}
		if frobenius(diff)/denom > 1e-8 {
			return false
		}
		for i, sv := range s.Sigma {
			if sv < 0 {
				return false
			}
			if i > 0 && sv > s.Sigma[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under SVD (sum of squared
// singular values equals squared Frobenius norm of A).
func TestSVDPropertyNormInvariant(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		r := 2 + int(rng.Uint64()%8)
		c := 2 + int(rng.Uint64()%8)
		a := randomMatrix(rng, r, c)
		s, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, sv := range s.Sigma {
			sum += sv * sv
		}
		af := frobenius(a)
		return almostEq(math.Sqrt(sum), af, 1e-8*(1+af))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSVD60x8(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := randomMatrix(rng, 60, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}
