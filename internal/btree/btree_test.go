package btree

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// scan returns every (key,id) pair in leaf-chain order, the order
// Range walks.
func scan(tr *Tree) (keys []float64, ids []uint64) {
	for lf := tr.root.findLeaf(math.Inf(-1)); lf != nil; lf = lf.next {
		for i, k := range lf.keys {
			for _, id := range lf.ids[i] {
				keys, ids = append(keys, k), append(ids, id)
			}
		}
	}
	return keys, ids
}

func TestEmptyTree(t *testing.T) {
	tr := NewDefault()
	if keys, _ := scan(tr); len(keys) != 0 {
		t.Fatalf("empty tree holds %d pairs", len(keys))
	}
	if ids := tr.Get(5); ids != nil {
		t.Fatalf("Get on empty = %v, want nil", ids)
	}
}

func TestNewPanicsOnSmallOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(2) did not panic")
		}
	}()
	New(2)
}

func TestInsertGetSingle(t *testing.T) {
	tr := NewDefault()
	tr.Insert(3.5, 42)
	got := tr.Get(3.5)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("Get = %v, want [42]", got)
	}
	if keys, _ := scan(tr); len(keys) != 1 {
		t.Fatalf("tree holds %d pairs, want 1", len(keys))
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := NewDefault()
	tr.Insert(7, 1)
	tr.Insert(7, 2)
	tr.Insert(7, 3)
	got := tr.Get(7)
	if len(got) != 3 {
		t.Fatalf("Get(7) = %v, want 3 ids", got)
	}
	if lf := tr.root.(*leaf); len(lf.keys) != 1 || len(lf.ids[0]) != 3 {
		t.Fatalf("distinct keys/pairs = %d/%d, want 1/3", len(lf.keys), len(lf.ids[0]))
	}
}

func TestSplitGrowth(t *testing.T) {
	tr := New(4)
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	height := 1
	for n := tr.root; ; height++ {
		in, ok := n.(*internal)
		if !ok {
			break
		}
		n = in.children[0]
	}
	if height < 3 {
		t.Fatalf("height = %d after 1000 keys with order 4, expected deep tree", height)
	}
	for i := 0; i < 1000; i++ {
		got := tr.Get(float64(i))
		if len(got) != 1 || got[0] != uint64(i) {
			t.Fatalf("Get(%d) = %v after splits", i, got)
		}
	}
}

func TestRangeQuery(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	ids, visited := tr.Range(nil, 10, 20)
	if len(ids) != 11 {
		t.Fatalf("Range[10,20] returned %d ids, want 11", len(ids))
	}
	if visited != 11 {
		t.Fatalf("visited = %d, want 11", visited)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for i, id := range ids {
		if id != uint64(10+i) {
			t.Fatalf("Range ids = %v", ids)
		}
	}
}

func TestRangeEmptyAndOutOfBounds(t *testing.T) {
	tr := NewDefault()
	for i := 0; i < 10; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	if ids, _ := tr.Range(nil, 100, 200); len(ids) != 0 {
		t.Fatalf("out-of-bounds range = %v, want empty", ids)
	}
	if ids, _ := tr.Range(nil, 5, 5); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("point range = %v, want [5]", ids)
	}
}

func TestScanOrdered(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 500; i++ {
		tr.Insert(rng.Float64()*1000, uint64(i))
	}
	keys, _ := scan(tr)
	if len(keys) != 500 {
		t.Fatalf("Scan visited %d pairs, want 500", len(keys))
	}
	if !sort.Float64sAreSorted(keys) {
		t.Fatal("Scan not in key order")
	}
}

func TestSizeBytesGrows(t *testing.T) {
	tr := NewDefault()
	empty := tr.SizeBytes()
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	if tr.SizeBytes() <= empty {
		t.Fatal("SizeBytes did not grow with inserts")
	}
}

// Property: the tree agrees with a reference map across random insert
// sequences.
func TestPropertyAgainstReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+99))
		tr := New(4)
		ref := map[float64]map[uint64]bool{}
		for op := 0; op < 400; op++ {
			key := float64(rng.Uint64() % 50)
			id := rng.Uint64() % 20
			tr.Insert(key, id)
			if ref[key] == nil {
				ref[key] = map[uint64]bool{}
			}
			ref[key][id] = true // the tree keeps duplicate (key,id) pairs; the model a set
		}
		for key, ids := range ref {
			got := tr.Get(key)
			set := map[uint64]bool{}
			for _, id := range got {
				set[id] = true
			}
			for id := range ids {
				if !set[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Range(lo,hi) returns exactly the pairs a full scan finds in
// that window.
func TestPropertyRangeMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^7))
		tr := New(5)
		for i := 0; i < 300; i++ {
			tr.Insert(float64(rng.Uint64()%100), uint64(i))
		}
		lo := float64(rng.Uint64() % 100)
		hi := lo + float64(rng.Uint64()%40)
		got, _ := tr.Range(nil, lo, hi)
		var want []uint64
		keys, ids := scan(tr)
		for i, k := range keys {
			if k >= lo && k <= hi {
				want = append(want, ids[i])
			}
		}
		if len(got) != len(want) {
			return false
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := NewDefault()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Float64()*1e6, uint64(i))
	}
}

func BenchmarkRange1000(b *testing.B) {
	tr := NewDefault()
	for i := 0; i < 100000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	buf := make([]uint64, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = tr.Range(buf[:0], 5000, 6000)
	}
}
