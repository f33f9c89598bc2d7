package rtree

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func pt(xs ...float64) []float64 { return xs }

// dist is the Euclidean distance between points a and b.
func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestRectNormalization(t *testing.T) {
	r := NewRect(pt(5, 1), pt(1, 5))
	if r.Lo[0] != 1 || r.Hi[0] != 5 || r.Lo[1] != 1 || r.Hi[1] != 5 {
		t.Fatalf("bounds not normalized: %+v", r)
	}
}

func TestRectPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRect with mismatched dims did not panic")
		}
	}()
	NewRect(pt(1, 2), pt(1))
}

func TestRectContainsIntersects(t *testing.T) {
	outer := NewRect(pt(0, 0), pt(10, 10))
	inner := NewRect(pt(2, 2), pt(5, 5))
	apart := NewRect(pt(20, 20), pt(30, 30))
	touching := NewRect(pt(10, 0), pt(15, 5))

	if !outer.Contains(inner) || inner.Contains(outer) {
		t.Fatal("Contains wrong")
	}
	if !outer.Intersects(inner) || !inner.Intersects(outer) {
		t.Fatal("Intersects wrong for nested")
	}
	if outer.Intersects(apart) {
		t.Fatal("Intersects wrong for disjoint")
	}
	if !outer.Intersects(touching) {
		t.Fatal("boundary touch should intersect")
	}
	if !outer.Contains(PointRect(pt(10, 10))) || outer.Contains(PointRect(pt(10.1, 0))) {
		t.Fatal("Contains wrong for a point on or past the boundary")
	}
}

func TestRectUnionAreaMargin(t *testing.T) {
	a := NewRect(pt(0, 0), pt(1, 1))
	b := NewRect(pt(2, 2), pt(3, 3))
	u := a.Union(b)
	if u.Lo[0] != 0 || u.Hi[1] != 3 {
		t.Fatalf("union = %+v", u)
	}
	if a.Area() != 1 || u.Area() != 9 {
		t.Fatalf("areas = %v/%v, want 1/9", a.Area(), u.Area())
	}
	if got := a.Enlargement(b); got != 8 {
		t.Fatalf("enlargement = %v, want 8", got)
	}
}

func TestRectMinDist(t *testing.T) {
	r := NewRect(pt(0, 0), pt(2, 2))
	if d := r.MinDist(pt(1, 1)); d != 0 {
		t.Fatalf("inside MinDist = %v, want 0", d)
	}
	if d := r.MinDist(pt(5, 2)); d != 3 {
		t.Fatalf("MinDist = %v, want 3", d)
	}
	if d := r.MinDist(pt(5, 6)); math.Abs(d-5) > 1e-12 {
		t.Fatalf("corner MinDist = %v, want 5", d)
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct{ dims, min, max int }{
		{0, 2, 8}, {2, 1, 8}, {2, 5, 8},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", c.dims, c.min, c.max)
				}
			}()
			New(c.dims, c.min, c.max)
		}()
	}
}

func TestInsertSearchBasic(t *testing.T) {
	tr := NewDefault(2)
	tr.Insert(1, PointRect(pt(1, 1)))
	tr.Insert(2, PointRect(pt(5, 5)))
	tr.Insert(3, PointRect(pt(9, 9)))

	got := tr.Search(nil, NewRect(pt(0, 0), pt(6, 6)))
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Search = %v, want [1 2]", got)
	}
	if tr.size != 3 {
		t.Fatalf("size = %d, want 3", tr.size)
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr := NewDefault(2)
	if got := tr.Search(nil, NewRect(pt(0, 0), pt(1, 1))); got != nil {
		t.Fatalf("Search on empty = %v", got)
	}
	if nn := tr.NearestKDims(pt(0, 0), 3, nil); nn != nil {
		t.Fatalf("NearestKDims on empty = %v", nn)
	}
}

func TestGrowthAndHeight(t *testing.T) {
	tr := New(2, 2, 4)
	for i := 0; i < 500; i++ {
		tr.Insert(uint64(i), PointRect(pt(float64(i%25), float64(i/25))))
	}
	height := 1
	for n := tr.root; !n.leaf; n = n.entries[0].child {
		height++
	}
	if height < 3 {
		t.Fatalf("height = %d, expected deep tree with M=4", height)
	}
	all := tr.Search(nil, NewRect(pt(-1, -1), pt(100, 100)))
	if len(all) != 500 {
		t.Fatalf("full search found %d, want 500", len(all))
	}
}

func TestNearestKOrdering(t *testing.T) {
	tr := NewDefault(2)
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), PointRect(pt(float64(i), 0)))
	}
	nn := tr.NearestKDims(pt(10.2, 0), 3, nil)
	if len(nn) != 3 {
		t.Fatalf("NearestKDims returned %d, want 3", len(nn))
	}
	if nn[0].ID != 10 {
		t.Fatalf("nearest = %d, want 10", nn[0].ID)
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatal("NearestKDims not in ascending distance order")
		}
	}
}

func TestNearestKMoreThanItems(t *testing.T) {
	tr := NewDefault(2)
	tr.Insert(1, PointRect(pt(0, 0)))
	tr.Insert(2, PointRect(pt(1, 1)))
	nn := tr.NearestKDims(pt(0, 0), 10, nil)
	if len(nn) != 2 {
		t.Fatalf("NearestKDims = %d results, want 2", len(nn))
	}
}

func TestNearestKZero(t *testing.T) {
	tr := NewDefault(2)
	tr.Insert(1, PointRect(pt(0, 0)))
	if nn := tr.NearestKDims(pt(0, 0), 0, nil); nn != nil {
		t.Fatalf("NearestKDims(0) = %v, want nil", nn)
	}
}

// TestBounds: the root's MBR, which Insert and NearestKDims start from,
// covers exactly the stored items.
func TestBounds(t *testing.T) {
	tr := NewDefault(2)
	tr.Insert(1, PointRect(pt(1, 2)))
	tr.Insert(2, PointRect(pt(5, -3)))
	b := tr.root.mbr()
	if b.Lo[0] != 1 || b.Lo[1] != -3 || b.Hi[0] != 5 || b.Hi[1] != 2 {
		t.Fatalf("root MBR = %+v", b)
	}
}

func TestCountNodesAndSize(t *testing.T) {
	tr := New(2, 2, 4)
	for i := 0; i < 200; i++ {
		tr.Insert(uint64(i), PointRect(pt(float64(i%20), float64(i/20))))
	}
	if tr.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if tr.LastVisited() < 0 {
		t.Fatal("LastVisited negative")
	}
}

// Property: Search agrees with a linear scan for random points and query
// rectangles.
func TestPropertySearchMatchesLinear(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*2+1))
		tr := New(3, 2, 6)
		type item struct {
			id uint64
			p  []float64
		}
		var items []item
		for i := 0; i < 200; i++ {
			p := pt(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
			items = append(items, item{uint64(i), p})
			tr.Insert(uint64(i), PointRect(p))
		}
		lo := pt(rng.Float64()*80, rng.Float64()*80, rng.Float64()*80)
		hi := pt(lo[0]+rng.Float64()*30, lo[1]+rng.Float64()*30, lo[2]+rng.Float64()*30)
		q := NewRect(lo, hi)

		got := tr.Search(nil, q)
		want := map[uint64]bool{}
		for _, it := range items {
			if q.Contains(PointRect(it.p)) {
				want[it.id] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: NearestKDims agrees with the exact k smallest distances from a
// linear scan.
func TestPropertyNearestKExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		tr := New(2, 2, 5)
		var pts [][]float64
		for i := 0; i < 150; i++ {
			p := pt(rng.Float64()*50, rng.Float64()*50)
			pts = append(pts, p)
			tr.Insert(uint64(i), PointRect(p))
		}
		q := pt(rng.Float64()*50, rng.Float64()*50)
		k := 1 + int(rng.Uint64()%10)

		got := tr.NearestKDims(q, k, nil)
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = dist(p, q)
		}
		sort.Float64s(dists)
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Dist-dists[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := NewDefault(3)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i), PointRect(pt(rng.Float64(), rng.Float64(), rng.Float64())))
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := NewDefault(3)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100000; i++ {
		tr.Insert(uint64(i), PointRect(pt(rng.Float64(), rng.Float64(), rng.Float64())))
	}
	q := NewRect(pt(0.4, 0.4, 0.4), pt(0.6, 0.6, 0.6))
	buf := make([]uint64, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Search(buf[:0], q)
	}
}

func BenchmarkNearestK(b *testing.B) {
	tr := NewDefault(3)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100000; i++ {
		tr.Insert(uint64(i), PointRect(pt(rng.Float64(), rng.Float64(), rng.Float64())))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestKDims(pt(0.5, 0.5, 0.5), 8, nil)
	}
}
