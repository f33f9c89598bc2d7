package merge

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTopKOrderAndBound(t *testing.T) {
	lists := [][]Cand{
		{{ID: 5, Dist: 0.5}, {ID: 9, Dist: 0.1}},
		{{ID: 2, Dist: 0.1}, {ID: 7, Dist: 0.9}},
		{{ID: 4, Dist: 0.3}},
	}
	got := TopK(lists, 3)
	want := []Cand{{ID: 2, Dist: 0.1}, {ID: 9, Dist: 0.1}, {ID: 4, Dist: 0.3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if got := TopK(lists, 100); len(got) != 5 {
		t.Fatalf("k beyond candidates: got %d, want all 5", len(got))
	}
	if got := TopK(lists, 0); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
}

// TestTopKAligned: the aligned form is TopK on the same candidates — the
// same (dist, id) order across partitions — and a partition that sent
// no distances ranks at distance 0.
func TestTopKAligned(t *testing.T) {
	ids := [][]uint64{{5, 9}, {2, 7}, {4}}
	dists := [][]float64{{0.5, 0.1}, {0.1, 0.9}, {0.3}}
	gotIDs, gotDists := TopKAligned(ids, dists, 3)
	if !reflect.DeepEqual(gotIDs, []uint64{2, 9, 4}) || !reflect.DeepEqual(gotDists, []float64{0.1, 0.1, 0.3}) {
		t.Fatalf("TopKAligned = %v %v", gotIDs, gotDists)
	}
	gotIDs, gotDists = TopKAligned(ids, [][]float64{{0.5, 0.1}, nil, {0.3}}, 2)
	if !reflect.DeepEqual(gotIDs, []uint64{2, 7}) || !reflect.DeepEqual(gotDists, []float64{0, 0}) {
		t.Fatalf("missing distances: TopKAligned = %v %v", gotIDs, gotDists)
	}
	if gotIDs, gotDists = TopKAligned(nil, nil, 3); len(gotIDs) != 0 || len(gotDists) != 0 {
		t.Fatalf("no partitions: TopKAligned = %v %v", gotIDs, gotDists)
	}
}

// TestTopKMatchesSort cross-checks the bounded heap against the naive
// sort-everything reference on random inputs, including duplicate
// distances (id tie-break).
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var lists [][]Cand
		var all []Cand
		for p := 0; p < 4; p++ {
			n := rng.Intn(20)
			l := make([]Cand, n)
			for i := range l {
				l[i] = Cand{ID: uint64(rng.Intn(1000)), Dist: float64(rng.Intn(8)) / 8}
			}
			// Per-partition lists arrive ranked, like real shard answers.
			sort.Slice(l, func(i, j int) bool { return Less(l[i], l[j]) })
			lists = append(lists, l)
			all = append(all, l...)
		}
		k := 1 + rng.Intn(12)
		sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := TopK(lists, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d: got %v, want %v", trial, k, got, want)
		}
	}
}

// TestCompare pins the (dist, id) order the group search, the cluster
// rerank and TopK share, and Less as its negative half.
func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Cand
		want int
	}{
		{"nearer first", Cand{ID: 9, Dist: 0.1}, Cand{ID: 2, Dist: 0.2}, -1},
		{"farther last", Cand{ID: 2, Dist: 0.2}, Cand{ID: 9, Dist: 0.1}, 1},
		{"equal dist, lower id first", Cand{ID: 2, Dist: 0.3}, Cand{ID: 9, Dist: 0.3}, -1},
		{"equal dist, higher id last", Cand{ID: 9, Dist: 0.3}, Cand{ID: 2, Dist: 0.3}, 1},
		{"equal", Cand{ID: 4, Dist: 0.3}, Cand{ID: 4, Dist: 0.3}, 0},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Compare(%v, %v) = %d, want %d", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := Less(tc.a, tc.b); got != (tc.want < 0) {
			t.Errorf("%s: Less(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want < 0)
		}
	}
}

func TestUnion(t *testing.T) {
	ids, dups := Union([][]uint64{{1, 2}, {3}, {}, {4, 2}})
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Union = %v, want %v", ids, want)
	}
	if dups != 1 {
		t.Fatalf("duplicates = %d, want 1", dups)
	}
	ids, dups = Union(nil)
	if len(ids) != 0 || dups != 0 {
		t.Fatalf("empty union: %v, %d", ids, dups)
	}
}
