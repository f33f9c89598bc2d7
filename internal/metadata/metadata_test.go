package metadata

import (
	"math"
	"testing"
	"testing/quick"
)

func mkFile(id uint64, size, ctime float64) *File {
	f := &File{ID: id, Path: "/f"}
	f.Attrs[AttrSize] = size
	f.Attrs[AttrCTime] = ctime
	return f
}

func TestAttrString(t *testing.T) {
	if AttrSize.String() != "size" || AttrAccessFreq.String() != "access_freq" {
		t.Fatal("attr names wrong")
	}
	if Attr(99).String() != "attr(99)" {
		t.Fatalf("unknown attr name = %q", Attr(99).String())
	}
}

func TestAllAttrs(t *testing.T) {
	all := AllAttrs()
	if len(all) != int(NumAttrs) {
		t.Fatalf("AllAttrs len = %d, want %d", len(all), NumAttrs)
	}
	for i, a := range all {
		if int(a) != i {
			t.Fatalf("AllAttrs[%d] = %v", i, a)
		}
	}
}

func TestNormalizerUnfittedIdentity(t *testing.T) {
	var n Normalizer
	if n.Fitted() {
		t.Fatal("fresh normalizer reports fitted")
	}
	if n.Value(AttrSize, 123) != 123 {
		t.Fatal("unfitted normalizer should be identity")
	}
}

func TestNormalizerFitEmptyIsIdentity(t *testing.T) {
	var n Normalizer
	n.Fit(nil)
	if n.Fitted() {
		t.Fatal("Fit(nil) should leave normalizer unfitted")
	}
}

func TestNormalizerRange(t *testing.T) {
	files := []*File{mkFile(1, 0, 10), mkFile(2, 100, 20), mkFile(3, 50, 15)}
	var n Normalizer
	n.Fit(files)
	if got := n.Value(AttrSize, 0); got != 0 {
		t.Fatalf("min should map to 0, got %v", got)
	}
	if got := n.Value(AttrSize, 100); got != 1 {
		t.Fatalf("max should map to 1, got %v", got)
	}
	if got := n.Value(AttrSize, 50); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mid should map to 0.5, got %v", got)
	}
	// Clamping beyond the fitted range.
	if n.Value(AttrSize, -10) != 0 || n.Value(AttrSize, 500) != 1 {
		t.Fatal("values outside fit range should clamp")
	}
	lo, hi := n.Bounds(AttrCTime)
	if lo != 10 || hi != 20 {
		t.Fatalf("Bounds = %v/%v, want 10/20", lo, hi)
	}
}

func TestNormalizerDegenerateAttr(t *testing.T) {
	files := []*File{mkFile(1, 7, 1), mkFile(2, 7, 2)}
	var n Normalizer
	n.Fit(files)
	if got := n.Value(AttrSize, 7); got != 0 {
		t.Fatalf("constant attribute should normalize to 0, got %v", got)
	}
}

func TestNormalizerVectorAndPoint(t *testing.T) {
	files := []*File{mkFile(1, 0, 0), mkFile(2, 10, 100)}
	var n Normalizer
	n.Fit(files)
	attrs := []Attr{AttrSize, AttrCTime}
	v := n.Vector(files[1], attrs)
	if v[0] != 1 || v[1] != 1 {
		t.Fatalf("Vector = %v, want [1 1]", v)
	}
	if p0, p1 := n.Value(AttrSize, 5), n.Value(AttrCTime, 50); p0 != 0.5 || p1 != 0.5 {
		t.Fatalf("mid-range values = [%v %v], want [0.5 0.5]", p0, p1)
	}
}

func TestCentroid(t *testing.T) {
	files := []*File{mkFile(1, 0, 0), mkFile(2, 10, 100)}
	var n Normalizer
	n.Fit(files)
	attrs := []Attr{AttrSize, AttrCTime}
	c := Centroid(&n, files, attrs)
	if c[0] != 0.5 || c[1] != 0.5 {
		t.Fatalf("Centroid = %v, want [0.5 0.5]", c)
	}
	if Centroid(&n, nil, attrs) != nil {
		t.Fatal("Centroid of empty set should be nil")
	}
}

func TestSumSquaredError(t *testing.T) {
	files := []*File{mkFile(1, 0, 0), mkFile(2, 10, 0)}
	var n Normalizer
	n.Fit(files)
	attrs := []Attr{AttrSize}
	// Normalized values are 0 and 1; centroid 0.5; SSE = 0.25+0.25.
	if got := SumSquaredError(&n, files, attrs); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SSE = %v, want 0.5", got)
	}
	if SumSquaredError(&n, nil, attrs) != 0 {
		t.Fatal("SSE of empty set should be 0")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	f := mkFile(1, 1, 1)
	f.Path = "/a/long/path/name.txt"
	if f.SizeBytes() <= len(f.Path) {
		t.Fatal("SizeBytes implausibly small")
	}
}

// Property: normalized values always land in [0,1] once fitted.
func TestPropertyNormalizedInUnitInterval(t *testing.T) {
	f := func(vals []float64, probe float64) bool {
		if len(vals) == 0 {
			return true
		}
		files := make([]*File, len(vals))
		for i, v := range vals {
			files[i] = mkFile(uint64(i), v, 0)
		}
		var n Normalizer
		n.Fit(files)
		got := n.Value(AttrSize, probe)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the centroid minimizes SSE — shifting any coordinate
// increases the sum of squared distances.
func TestPropertyCentroidMinimizesSSE(t *testing.T) {
	f := func(seed int64) bool {
		files := []*File{
			mkFile(1, float64(seed%100), 3),
			mkFile(2, float64((seed+37)%100), 8),
			mkFile(3, float64((seed+74)%100), 1),
		}
		var n Normalizer
		n.Fit(files)
		attrs := []Attr{AttrSize, AttrCTime}
		c := Centroid(&n, files, attrs)
		base := 0.0
		for _, fl := range files {
			v := n.Vector(fl, attrs)
			for i := range c {
				d := v[i] - c[i]
				base += d * d
			}
		}
		shifted := 0.0
		for _, fl := range files {
			v := n.Vector(fl, attrs)
			for i := range c {
				d := v[i] - (c[i] + 0.1)
				shifted += d * d
			}
		}
		return shifted >= base-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
