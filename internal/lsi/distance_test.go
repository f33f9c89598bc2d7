package lsi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceCorrelationIdentity(t *testing.T) {
	v := []float64{1, 2, 3}
	if got := DistanceCorrelation(v, v); got != 1 {
		t.Fatalf("identical vectors correlation = %v, want 1", got)
	}
}

func TestDistanceCorrelationDecays(t *testing.T) {
	a := []float64{0, 0}
	near := []float64{0.1, 0}
	far := []float64{5, 0}
	cn := DistanceCorrelation(a, near)
	cf := DistanceCorrelation(a, far)
	if !(cn > cf) {
		t.Fatalf("correlation must decay with distance: near %v, far %v", cn, cf)
	}
	if want := math.Exp(-0.1); math.Abs(cn-want) > 1e-12 {
		t.Fatalf("near correlation = %v, want %v", cn, want)
	}
}

func TestDistanceCorrelationShortVector(t *testing.T) {
	// Length mismatch compares the common prefix.
	a := []float64{1, 2, 3}
	b := []float64{1, 2}
	if got := DistanceCorrelation(a, b); got != 1 {
		t.Fatalf("prefix-equal vectors correlation = %v, want 1", got)
	}
}

func TestPropertyDistanceCorrelationBounds(t *testing.T) {
	f := func(a, b []float64) bool {
		c := DistanceCorrelation(a, b)
		if math.IsNaN(c) {
			return false
		}
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDistanceCorrelationSymmetric(t *testing.T) {
	f := func(a, b [4]float64) bool {
		return DistanceCorrelation(a[:], b[:]) == DistanceCorrelation(b[:], a[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseDistanceCorrelations(t *testing.T) {
	vecs := [][]float64{
		{0.1, 0.1}, {0.12, 0.1}, // close pair
		{0.9, 0.95}, // far from both
	}
	m, err := Fit(vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := m.PairwiseDistanceCorrelations()
	if cols, rows := len(d.Row(2)), len(d.T().Row(2)); cols != 3 || rows != 3 {
		t.Fatalf("dims = %dx%d, want 3x3", rows, cols)
	}
	for i := 0; i < 3; i++ {
		if d.At(i, i) != 1 {
			t.Fatalf("diagonal (%d,%d) = %v", i, i, d.At(i, i))
		}
		for j := 0; j < 3; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatal("not symmetric")
			}
		}
	}
	if !(d.At(0, 1) > d.At(0, 2)) {
		t.Fatalf("close pair correlation %v not above far pair %v", d.At(0, 1), d.At(0, 2))
	}
}
