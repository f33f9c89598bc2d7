package semtree

import (
	"sort"
	"testing"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// refGroupTopK is the reference SearchGroupTopK is held to: every file
// under the group, sorted by (dist, id), cut to k.
func refGroupTopK(t *Tree, group *Node, q query.TopK) []uint64 {
	type cand struct {
		id   uint64
		dist float64
	}
	var cands []cand
	for _, l := range group.Leaves(nil) {
		for _, f := range l.Unit.Files {
			cands = append(cands, cand{f.ID, q.Dist(t.Norm, f)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	if k := q.K; k < len(cands) {
		cands = cands[:k]
	}
	out := make([]uint64, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// TestSearchGroupTopKMatchesSort holds every group's top-k, in order,
// to the sort-everything reference. Every tenth file has a twin with
// the same attribute vector and another id, so queries anchored on a
// twin rank two files at exactly the same distance and only the id
// decides which comes first. Placement orders equal vectors by id, so
// every other pair swaps ids after Build and scans higher id first.
func TestSearchGroupTopKMatchesSort(t *testing.T) {
	set := testCorpus(t, 2000, 101)
	files := set.Files
	var twins [][2]*metadata.File
	next := uint64(0)
	for _, f := range files {
		next = max(next, f.ID+1)
	}
	for i := 0; i < len(set.Files); i += 10 {
		f := set.Files[i]
		twin := &metadata.File{ID: next, Path: f.Path + ".twin", Attrs: f.Attrs}
		next++
		files = append(files, twin)
		twins = append(twins, [2]*metadata.File{f, twin})
	}
	attrs := trace.DefaultQueryAttrs()
	tree := Build(PlaceSemantic(files, 24, set.Norm, attrs), set.Norm, Config{Attrs: attrs})
	for i, tw := range twins {
		if i%2 == 0 {
			tw[0].ID, tw[1].ID = tw[1].ID, tw[0].ID
		}
	}

	groupOf := map[uint64]*Node{}
	for _, g := range tree.FirstLevelIndexUnits() {
		for _, l := range g.Leaves(nil) {
			for _, f := range l.Unit.Files {
				groupOf[f.ID] = g
			}
		}
	}
	var queries []query.TopK
	for _, tw := range twins {
		if groupOf[tw[0].ID] != groupOf[tw[1].ID] {
			continue
		}
		p := make([]float64, len(attrs))
		for i, a := range attrs {
			p[i] = tw[0].Attrs[a]
		}
		queries = append(queries, query.NewTopK(attrs, p, 1))
	}
	if len(queries) < 10 {
		t.Fatalf("only %d twin pairs share a group; the ties are not exercised", len(queries))
	}
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 103)
	for i := 0; i < 20; i++ {
		queries = append(queries, gen.TopK(1))
	}

	for _, g := range tree.FirstLevelIndexUnits() {
		size := g.FileCount()
		for _, q := range queries {
			for _, k := range []int{1, 8, size, size + 5} {
				q.K = k
				got, st := tree.SearchGroupTopK(g, q)
				want := refGroupTopK(tree, g, q)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("group %d (%d files), k=%d, point %v: rank %d of %d/%d differs: got %v, want %v",
						g.ID, size, k, q.Point, i, len(got), len(want), got[i:min(i+5, len(got))], want[i:min(i+5, len(want))])
				}
				if st.RecordsScanned != size || st.GroupsTouched != 1 {
					t.Fatalf("group %d: stats %+v, want %d records in 1 group", g.ID, st, size)
				}
			}
		}
	}
}

// firstDiff is the first rank where a and b differ, or -1 when they are
// equal.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// msnTree builds the 20,000-file, 60-unit MSN tree the allocation fence
// and BenchmarkSearchGroupTopK run on: 13 first-level groups of 666 to
// 3,334 files.
func msnTree(tb testing.TB) (*Tree, *trace.Set) {
	return buildTestTree(tb, 20000, 60, 1)
}

// TestSearchGroupTopKAllocs fences the group search's allocations: the
// leaf list, one candidate slice sized to the group, and the answer —
// not one per grown slice, whose count rises with the group's size.
func TestSearchGroupTopKAllocs(t *testing.T) {
	tree, set := msnTree(t)
	q := trace.NewQueryGen(set, stats.Zipf, nil, 7).TopK(8)
	for _, g := range tree.FirstLevelIndexUnits() {
		allocs := testing.AllocsPerRun(5, func() { tree.SearchGroupTopK(g, q) })
		if allocs > 8 {
			t.Errorf("group %d (%d files): %.0f allocations per search, want at most 8", g.ID, g.FileCount(), allocs)
		}
	}
}

var sinkIDs []uint64

// BenchmarkSearchGroupTopK times one group search: 64 fixed top-8
// anchors, each over the groups RouteTopKGroups picks for it under the
// cluster's default off-line budget (3 plus a quarter of the groups).
func BenchmarkSearchGroupTopK(b *testing.B) {
	tree, set := msnTree(b)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 7)
	budget := 3 + len(tree.FirstLevelIndexUnits())/4
	type search struct {
		g *Node
		q query.TopK
	}
	var searches []search
	for i := 0; i < 64; i++ {
		q := gen.TopK(8)
		for _, g := range tree.RouteTopKGroups(q, budget) {
			searches = append(searches, search{g, q})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := searches[i%len(searches)]
		sinkIDs, _ = tree.SearchGroupTopK(s.g, s.q)
	}
}

// TestFileCount checks the subtree walk against the leaves each group
// spans, and that it allocates nothing.
func TestFileCount(t *testing.T) {
	tree, set := buildTestTree(t, 2000, 24, 3)
	if got := tree.Root.FileCount(); got != len(set.Files) {
		t.Fatalf("root counts %d files, want %d", got, len(set.Files))
	}
	for _, g := range tree.FirstLevelIndexUnits() {
		want := 0
		for _, l := range g.Leaves(nil) {
			want += l.Unit.Len()
		}
		if got := g.FileCount(); got != want {
			t.Errorf("group %d counts %d files, its leaves hold %d", g.ID, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { g.FileCount() }); allocs != 0 {
			t.Errorf("group %d: %.0f allocations per count, want 0", g.ID, allocs)
		}
	}
}
