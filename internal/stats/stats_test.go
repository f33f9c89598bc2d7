package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDistributionString(t *testing.T) {
	cases := map[Distribution]string{Uniform: "Uniform", Gauss: "Gauss", Zipf: "Zipf"}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("String() = %q, want %q", d.String(), want)
		}
	}
	if Distribution(9).String() != "Distribution(9)" {
		t.Errorf("unknown distribution String() = %q", Distribution(9).String())
	}
}

func TestZipfGenMonotoneCDF(t *testing.T) {
	z := NewZipfGen(NewRNG(3), 1.0, 64)
	counts := make([]int, 64)
	for i := 0; i < 20000; i++ {
		k := z.Next()
		if k < 0 || k >= 64 {
			t.Fatalf("Zipf index %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[32] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[32]=%d", counts[0], counts[32])
	}
}

func TestZipfGenPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipfGen(.., 0) did not panic")
		}
	}()
	NewZipfGen(NewRNG(1), 1.0, 0)
}

func TestLognormalPositive(t *testing.T) {
	rng := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := Lognormal(rng, 10, 2); v <= 0 {
			t.Fatalf("Lognormal produced non-positive %v", v)
		}
	}
}

func TestRecall(t *testing.T) {
	cases := []struct {
		truth, answer []uint64
		want          float64
	}{
		{nil, nil, 1},
		{nil, []uint64{1}, 1},
		{[]uint64{1, 2, 3, 4}, []uint64{1, 2}, 0.5},
		{[]uint64{1, 2}, []uint64{1, 2, 3, 4}, 1},
		{[]uint64{5}, []uint64{6}, 0},
		{[]uint64{1, 2, 3}, []uint64{3, 2, 1}, 1},
	}
	for i, c := range cases {
		if got := Recall(c.truth, c.answer); got != c.want {
			t.Errorf("case %d: Recall = %v, want %v", i, got, c.want)
		}
	}
}

func TestRecallPropertyBounds(t *testing.T) {
	f := func(truth, answer []uint64) bool {
		r := Recall(truth, answer)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecallPropertySupersetAnswer(t *testing.T) {
	// An answer that contains all of truth has recall exactly 1.
	f := func(truth []uint64, extra []uint64) bool {
		answer := append(append([]uint64{}, truth...), extra...)
		return Recall(truth, answer) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("empty summary should be zero-valued")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Fatalf("n = %d, want 8", s.n)
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", s.Sum())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(3)
	for _, v := range []int{0, 0, 1, 2, 5, -1} {
		h.Add(v)
	}
	if h.total != 6 {
		t.Fatalf("total = %d, want 6", h.total)
	}
	if h.counts[0] != 3 { // two zeros + clamped -1
		t.Fatalf("counts[0] = %d, want 3", h.counts[0])
	}
	if h.counts[2] != 2 { // one 2 + clamped 5
		t.Fatalf("counts[2] = %d, want 2", h.counts[2])
	}
	if got := h.Fraction(1); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("Fraction(1) = %v, want 1/6", got)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram(2)
	if h.Fraction(0) != 0 {
		t.Fatal("empty histogram Fraction should be 0")
	}
}

func TestHistogramPanicsOnZeroBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0) did not panic")
		}
	}()
	NewHistogram(0)
}
