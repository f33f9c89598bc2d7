package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewDefault()
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("/home/user/file-%d.dat", i)
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestAbsentKeysMostlyNegative(t *testing.T) {
	f := NewDefault()
	for i := 0; i < 60; i++ {
		f.Add(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	n := 10000
	for i := 0; i < n; i++ {
		if f.Contains(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(n)
	// With 60 keys in 1024 bits, k=7: theoretical fp ≈ 0.0005. Allow slack.
	if rate > 0.01 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, p := range [][2]int{{0, 7}, {1024, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", p[0], p[1])
				}
			}()
			New(p[0], p[1])
		}()
	}
}

func TestDefaultGeometry(t *testing.T) {
	f := NewDefault()
	if f.Bits() != 1024 || f.k != 7 {
		t.Fatalf("default geometry %d/%d, want 1024/7", f.Bits(), f.k)
	}
	if f.SizeBytes() != 128 {
		t.Fatalf("SizeBytes = %d, want 128", f.SizeBytes())
	}
}

func TestUnionBehavesLikeCombinedSet(t *testing.T) {
	a, b := NewDefault(), NewDefault()
	for i := 0; i < 30; i++ {
		a.Add(fmt.Sprintf("a-%d", i))
		b.Add(fmt.Sprintf("b-%d", i))
	}
	u := a.Clone()
	u.Union(b)
	for i := 0; i < 30; i++ {
		if !u.Contains(fmt.Sprintf("a-%d", i)) || !u.Contains(fmt.Sprintf("b-%d", i)) {
			t.Fatal("union lost a member")
		}
	}
}

func TestUnionIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("union of incompatible filters did not panic")
		}
	}()
	New(512, 7).Union(New(1024, 7))
}

func TestCloneIndependence(t *testing.T) {
	a := NewDefault()
	a.Add("x")
	b := a.Clone()
	b.Add("y")
	if a.Contains("y") && a.PopCount() == b.PopCount() {
		t.Fatal("clone shares bit storage with original")
	}
	if !b.Contains("x") {
		t.Fatal("clone lost member")
	}
}

func TestReset(t *testing.T) {
	f := NewDefault()
	f.Add("x")
	f.Reset()
	if f.PopCount() != 0 {
		t.Fatal("Reset did not clear the filter")
	}
	if f.Contains("x") {
		t.Fatal("Reset filter still reports membership")
	}
}

func TestFillRatioAndFPEstimate(t *testing.T) {
	f := NewDefault()
	if f.FillRatio() != 0 || f.EstimatedFalsePositiveRate() != 0 {
		t.Fatal("empty filter should report zero fill and fp rate")
	}
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	if f.FillRatio() <= 0 || f.FillRatio() > 1 {
		t.Fatalf("FillRatio = %v out of (0,1]", f.FillRatio())
	}
	if fp := f.EstimatedFalsePositiveRate(); fp <= 0 || fp > 1 {
		t.Fatalf("fp estimate = %v out of (0,1]", fp)
	}
}

// Property: anything added is always found (no false negatives), and
// union preserves membership from both sides.
func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(keys []string) bool {
		fl := NewDefault()
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionSuperset(t *testing.T) {
	f := func(as, bs []string) bool {
		a, b := NewDefault(), NewDefault()
		for _, k := range as {
			a.Add(k)
		}
		for _, k := range bs {
			b.Add(k)
		}
		u := a.Clone()
		u.Union(b)
		for _, k := range as {
			if !u.Contains(k) {
				return false
			}
		}
		for _, k := range bs {
			if !u.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewDefault()
	for i := 0; i < b.N; i++ {
		f.Add("some/path/to/a/file.dat")
	}
}

func BenchmarkContains(b *testing.B) {
	f := NewDefault()
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains("k50")
	}
}
