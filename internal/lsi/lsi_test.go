package lsi

import (
	"math/rand/v2"
	"testing"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 2); err == nil {
		t.Fatal("Fit(nil) should error")
	}
	if _, err := Fit([][]float64{{}}, 2); err == nil {
		t.Fatal("Fit with empty vectors should error")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, 2); err == nil {
		t.Fatal("Fit with ragged vectors should error")
	}
}

func TestDefaultRank(t *testing.T) {
	cases := []struct{ t, n, want int }{
		{10, 10, 4}, {2, 10, 2}, {10, 3, 3}, {0, 0, 1},
	}
	for _, c := range cases {
		if got := DefaultRank(c.t, c.n); got != c.want {
			t.Errorf("DefaultRank(%d,%d) = %d, want %d", c.t, c.n, got, c.want)
		}
	}
}

func TestModelDims(t *testing.T) {
	vecs := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}}
	m, err := Fit(vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.n != 4 || m.Rank() != 2 {
		t.Fatalf("items/rank = %d/%d", m.n, m.Rank())
	}
	if len(m.ItemVector(0)) != 2 {
		t.Fatalf("item vector len = %d, want 2", len(m.ItemVector(0)))
	}
}

func TestCorrelatedItemsScoreHigher(t *testing.T) {
	// Two clusters in attribute space: small-old files and big-new files.
	vecs := [][]float64{
		{0.1, 0.1, 0.2}, {0.12, 0.15, 0.18}, {0.09, 0.12, 0.22}, // cluster A
		{0.9, 0.95, 0.85}, {0.88, 0.9, 0.92}, {0.93, 0.87, 0.9}, // cluster B
	}
	m, err := Fit(vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sims := m.PairwiseDistanceCorrelations()
	within := sims.At(0, 1)
	across := sims.At(0, 3)
	if within <= across {
		t.Fatalf("within-cluster sim %v not greater than across %v", within, across)
	}
}

func TestRankClampedToAvailable(t *testing.T) {
	vecs := [][]float64{{1, 2, 3}, {4, 5, 6}} // n=2 → rank ≤ 2
	m, err := Fit(vecs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rank() > 2 {
		t.Fatalf("Rank = %d, want ≤ 2", m.Rank())
	}
}

func BenchmarkFit60Items(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	vecs := make([][]float64, 60)
	for i := range vecs {
		vecs[i] = make([]float64, 7)
		for j := range vecs[i] {
			vecs[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(vecs, 4); err != nil {
			b.Fatal(err)
		}
	}
}
