package semtree

import (
	"sort"
	"testing"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testCorpus builds a small MSN-like workload with a fitted normalizer.
func testCorpus(t testing.TB, n int, seed uint64) *trace.Set {
	t.Helper()
	return trace.MSN().Generate(n, seed)
}

// buildTestTree builds a tree whose grouping predicate is the default
// query-attribute subset — the paper's "subset of d attributes,
// representing special interests" (§3.1.1) — so semantic grouping is
// aligned with the synthesized query patterns, as automatic
// configuration would arrange.
func buildTestTree(t testing.TB, nFiles, nUnits int, seed uint64) (*Tree, *trace.Set) {
	t.Helper()
	set := testCorpus(t, nFiles, seed)
	attrs := trace.DefaultQueryAttrs()
	units := PlaceSemantic(set.Files, nUnits, set.Norm, attrs)
	tree := Build(units, set.Norm, Config{Attrs: attrs})
	return tree, set
}

func TestPlaceSemanticEqualSizes(t *testing.T) {
	set := testCorpus(t, 1000, 1)
	units := PlaceSemantic(set.Files, 7, set.Norm, metadata.AllAttrs())
	if len(units) != 7 {
		t.Fatalf("got %d units, want 7", len(units))
	}
	total := 0
	for _, u := range units {
		if u.Len() < 1000/7-1 || u.Len() > 1000/7+1 {
			t.Fatalf("unit %d holds %d files; sizes must be approximately equal", u.ID, u.Len())
		}
		total += u.Len()
	}
	if total != 1000 {
		t.Fatalf("placed %d files, want 1000", total)
	}
}

func TestPlaceSemanticGroupsCorrelatedFiles(t *testing.T) {
	// Semantic placement should beat round-robin on within-unit SSE.
	set := testCorpus(t, 600, 2)
	attrs := metadata.AllAttrs()
	sem := PlaceSemantic(set.Files, 6, set.Norm, attrs)
	rr := PlaceRoundRobin(set.Files, 6)
	var semSSE, rrSSE float64
	for i := range sem {
		semSSE += metadata.SumSquaredError(set.Norm, sem[i].Files, attrs)
		rrSSE += metadata.SumSquaredError(set.Norm, rr[i].Files, attrs)
	}
	if semSSE >= rrSSE {
		t.Fatalf("semantic placement SSE %v not below round-robin %v", semSSE, rrSSE)
	}
}

func TestPlacePanics(t *testing.T) {
	set := testCorpus(t, 10, 3)
	for _, fn := range []func(){
		func() { PlaceSemantic(set.Files, 0, set.Norm, metadata.AllAttrs()) },
		func() { PlaceRoundRobin(set.Files, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero units did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestStorageUnitAddRemove(t *testing.T) {
	set := testCorpus(t, 20, 4)
	u := NewStorageUnit(0, set.Files[:10])
	if u.Len() != 10 {
		t.Fatalf("Len = %d, want 10", u.Len())
	}
	f := set.Files[10]
	u.AddFile(f)
	if !u.MayContain(f.Path) {
		t.Fatal("Bloom filter missing added file")
	}
	if got := u.LookupPath(f.Path); len(got) != 1 || got[0].ID != f.ID {
		t.Fatalf("LookupPath = %v", got)
	}
	if got := u.RemoveFile(f.ID); got != f {
		t.Fatalf("RemoveFile returned %v, want the stored file", got)
	}
	if u.RemoveFile(f.ID) != nil {
		t.Fatal("double remove succeeded")
	}
	if got := u.LookupPath(f.Path); len(got) != 0 {
		t.Fatalf("file still locatable after remove: %v", got)
	}
	mbr, ok := u.MBR()
	if !ok || mbr.Dims() != int(metadata.NumAttrs) {
		t.Fatal("MBR invalid after remove")
	}
}

func TestBuildBasics(t *testing.T) {
	tree, _ := buildTestTree(t, 500, 12, 5)
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(tree.Leaves()); got != 12 {
		t.Fatalf("leaves = %d, want 12", got)
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d, want ≥ 2", tree.Height())
	}
	storage, index := tree.CountNodes()
	if storage != 12 || index < 1 {
		t.Fatalf("CountNodes = %d/%d", storage, index)
	}
	if tree.TotalFiles() != 500 {
		t.Fatalf("TotalFiles = %d, want 500", tree.TotalFiles())
	}
	if len(tree.Thresholds) == 0 {
		t.Fatal("no thresholds recorded")
	}
	if tree.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestBuildSingleUnit(t *testing.T) {
	set := testCorpus(t, 50, 6)
	units := PlaceSemantic(set.Files, 1, set.Norm, metadata.AllAttrs())
	tree := Build(units, set.Norm, Config{})
	if !tree.Root.IsLeaf() {
		t.Fatal("single-unit tree root should be the leaf")
	}
	if len(tree.FirstLevelIndexUnits()) != 1 {
		t.Fatal("single-unit tree should expose one group")
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	set := testCorpus(t, 10, 7)
	defer func() {
		if recover() == nil {
			t.Error("Build over no units did not panic")
		}
	}()
	Build(nil, set.Norm, Config{})
}

func TestConfigValidation(t *testing.T) {
	set := testCorpus(t, 50, 8)
	units := PlaceSemantic(set.Files, 4, set.Norm, metadata.AllAttrs())
	defer func() {
		if recover() == nil {
			t.Error("invalid fan-out config did not panic")
		}
	}()
	Build(units, set.Norm, Config{MaxChildren: 4, MinChildren: 3})
}

func TestRangeQueryMatchesTruth(t *testing.T) {
	tree, set := buildTestTree(t, 800, 10, 9)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 11)
	for i := 0; i < 50; i++ {
		q := gen.Range(0.15)
		got, st := tree.RangeQuery(q)
		want := query.RangeTruth(set.Files, q)
		if !sameIDs(got, want) {
			t.Fatalf("query %d: got %d ids, want %d", i, len(got), len(want))
		}
		if st.NodesVisited == 0 {
			t.Fatal("no nodes visited")
		}
	}
}

func TestRangeQueryPrunes(t *testing.T) {
	tree, set := buildTestTree(t, 2000, 20, 13)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 17)
	var scanned, total int
	for i := 0; i < 30; i++ {
		q := gen.Range(0.05)
		_, st := tree.RangeQuery(q)
		scanned += st.RecordsScanned
		total += 2000
	}
	if frac := float64(scanned) / float64(total); frac > 0.8 {
		t.Fatalf("range queries scanned %.0f%% of records; MBR pruning ineffective", frac*100)
	}
}

func TestTopKQueryMatchesTruthDistances(t *testing.T) {
	tree, set := buildTestTree(t, 500, 8, 19)
	gen := trace.NewQueryGen(set, stats.Gauss, nil, 23)
	for i := 0; i < 30; i++ {
		q := gen.TopK(8)
		got, _ := tree.TopKQuery(q)
		want := query.TopKTruth(set.Files, set.Norm, q)
		if len(got) != len(want) {
			t.Fatalf("topk returned %d, want %d", len(got), len(want))
		}
		// The semantic tree searches exhaustively under MaxD pruning, so
		// distances must match the true k-th distance exactly.
		byID := map[uint64]*metadata.File{}
		for _, f := range set.Files {
			byID[f.ID] = f
		}
		gotK := q.Dist(set.Norm, byID[got[len(got)-1]])
		wantK := q.Dist(set.Norm, byID[want[len(want)-1]])
		if gotK > wantK+1e-9 {
			t.Fatalf("query %d: k-th distance %v exceeds true %v", i, gotK, wantK)
		}
	}
}

func TestPointQueryFindsExistingFiles(t *testing.T) {
	tree, set := buildTestTree(t, 400, 8, 29)
	for i := 0; i < 100; i++ {
		f := set.Files[(i*37)%len(set.Files)]
		got, st := tree.PointQuery(query.Point{Filename: f.Path})
		found := false
		for _, id := range got {
			if id == f.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query missed existing file %q", f.Path)
		}
		if st.BloomChecks == 0 {
			t.Fatal("no bloom checks recorded")
		}
	}
}

func TestPointQueryAbsentMostlyPrunes(t *testing.T) {
	tree, _ := buildTestTree(t, 400, 8, 31)
	misses := 0
	for i := 0; i < 200; i++ {
		got, _ := tree.PointQuery(query.Point{Filename: "/absent/nothing-here.bin"})
		if len(got) == 0 {
			misses++
		}
	}
	if misses != 200 {
		t.Fatalf("absent file reported present %d times", 200-misses)
	}
}

func TestGroupingEfficiencyZeroHopMajority(t *testing.T) {
	// Fig. 8: most complex queries should be served within one group.
	tree, set := buildTestTree(t, 2000, 20, 37)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 41)
	zeroHop, total := 0, 0
	for i := 0; i < 100; i++ {
		q := gen.Range(0.03)
		_, st := tree.RangeQuery(q)
		if st.GroupsTouched == 0 {
			continue // empty result; no group touched
		}
		total++
		if st.Hops() == 0 {
			zeroHop++
		}
	}
	if total == 0 {
		t.Skip("all queries empty")
	}
	if frac := float64(zeroHop) / float64(total); frac < 0.5 {
		t.Fatalf("0-hop fraction = %v, want > 0.5 (semantic grouping should localize)", frac)
	}
}

func TestInsertUnitAndValidate(t *testing.T) {
	tree, set := buildTestTree(t, 600, 8, 43)
	extra := testCorpus(t, 80, 44)
	nu := NewStorageUnit(100, extra.Files)
	leaf := tree.InsertUnit(nu)
	if leaf.Parent == nil {
		t.Fatal("inserted unit has no parent group")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after insert: %v", err)
	}
	if len(tree.Leaves()) != 9 {
		t.Fatalf("leaves = %d, want 9", len(tree.Leaves()))
	}
	// New files must be findable.
	f := extra.Files[0]
	got, _ := tree.PointQuery(query.Point{Filename: f.Path})
	found := false
	for _, id := range got {
		if id == f.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("file in inserted unit not findable")
	}
	_ = set
}

func TestInsertManyUnitsSplits(t *testing.T) {
	tree, _ := buildTestTree(t, 300, 4, 47)
	for i := 0; i < 40; i++ {
		extra := testCorpus(t, 20, uint64(100+i))
		tree.InsertUnit(NewStorageUnit(200+i, extra.Files))
		if err := tree.Validate(); err != nil {
			t.Fatalf("Validate after insert %d: %v", i, err)
		}
	}
	if len(tree.Leaves()) != 44 {
		t.Fatalf("leaves = %d, want 44", len(tree.Leaves()))
	}
}

func TestDeleteUnit(t *testing.T) {
	tree, _ := buildTestTree(t, 600, 10, 53)
	target := tree.Leaves()[3].Unit.ID
	if !tree.DeleteUnit(target) {
		t.Fatal("DeleteUnit failed")
	}
	if tree.DeleteUnit(target) {
		t.Fatal("double delete succeeded")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after delete: %v", err)
	}
	if len(tree.Leaves()) != 9 {
		t.Fatalf("leaves = %d, want 9", len(tree.Leaves()))
	}
}

func TestDeleteManyUnitsMerges(t *testing.T) {
	tree, _ := buildTestTree(t, 800, 16, 59)
	ids := make([]int, 0, 16)
	for _, l := range tree.Leaves() {
		ids = append(ids, l.Unit.ID)
	}
	for _, id := range ids[:12] {
		if !tree.DeleteUnit(id) {
			t.Fatalf("DeleteUnit(%d) failed", id)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("Validate after deleting %d: %v", id, err)
		}
	}
	if len(tree.Leaves()) != 4 {
		t.Fatalf("leaves = %d, want 4", len(tree.Leaves()))
	}
	// Remaining files still findable via range query covering everything.
	q := query.NewRange(
		[]metadata.Attr{metadata.AttrSize},
		[]float64{0}, []float64{1e18},
	)
	got, _ := tree.RangeQuery(q)
	if len(got) != tree.TotalFiles() {
		t.Fatalf("full-range query found %d, want %d", len(got), tree.TotalFiles())
	}
}

func TestInsertDeleteFile(t *testing.T) {
	tree, set := buildTestTree(t, 300, 6, 61)
	nf := &metadata.File{ID: 999999, Path: "/new/file.bin"}
	nf.Attrs[metadata.AttrSize] = 12345
	nf.Attrs[metadata.AttrMTime] = 100
	leaf := tree.InsertFile(nf)
	if leaf == nil || !leaf.IsLeaf() {
		t.Fatal("InsertFile returned bad leaf")
	}
	got, _ := tree.PointQuery(query.Point{Filename: nf.Path})
	if len(got) != 1 || got[0] != nf.ID {
		t.Fatalf("inserted file not findable: %v", got)
	}
	if del, got, ok := tree.DeleteFile(nf.ID); !ok || got != nf || del != leaf {
		t.Fatalf("DeleteFile = %v, %v, %v", del, got, ok)
	}
	if _, _, ok := tree.DeleteFile(nf.ID); ok {
		t.Fatal("double DeleteFile succeeded")
	}
	if tree.TotalFiles() != 300 {
		t.Fatalf("TotalFiles = %d, want 300", tree.TotalFiles())
	}
	_ = set
}

func TestSampleThreshold(t *testing.T) {
	set := testCorpus(t, 200, 67)
	units := PlaceSemantic(set.Files, 10, set.Norm, metadata.AllAttrs())
	vectors := make([][]float64, len(units))
	for i, u := range units {
		vectors[i] = u.Vector(set.Norm, metadata.AllAttrs())
	}
	lo := SampleThreshold(vectors, 0.25)
	hi := SampleThreshold(vectors, 0.95)
	if lo > hi {
		t.Fatalf("quantiles inverted: %v > %v", lo, hi)
	}
	if hi <= 0 || hi > 1 {
		t.Fatalf("threshold %v out of (0,1]", hi)
	}
	if got := SampleThreshold(nil, 0.5); got != 0.5 {
		t.Fatalf("empty-vector threshold = %v, want 0.5 fallback", got)
	}
}

func TestOptimalThreshold(t *testing.T) {
	tree, _ := buildTestTree(t, 400, 12, 71)
	cands := []float64{0.3, 0.5, 0.7, 0.9}
	best, score := OptimalThreshold(tree.Leaves(), cands, 10)
	found := false
	for _, c := range cands {
		if c == best {
			found = true
		}
	}
	if !found {
		t.Fatalf("best threshold %v not among candidates", best)
	}
	if score < 0 {
		t.Fatalf("objective %v negative", score)
	}
}

func TestOptimalThresholdPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OptimalThreshold with no candidates did not panic")
		}
	}()
	OptimalThreshold(nil, nil, 10)
}

func TestRouteRangeGroupsAndLocalSearch(t *testing.T) {
	tree, set := buildTestTree(t, 1000, 12, 73)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 79)
	agree := 0
	const n = 50
	for i := 0; i < n; i++ {
		q := gen.Range(0.05)
		targets := tree.RouteRangeGroups(q, 3)
		if len(targets) == 0 {
			t.Fatal("RouteRangeGroups returned nothing")
		}
		var local []uint64
		for _, g := range targets {
			ids, st := tree.SearchGroupRange(g, q)
			if st.GroupsTouched > 1 {
				t.Fatalf("local search touched %d groups", st.GroupsTouched)
			}
			local = append(local, ids...)
		}
		truth := query.RangeTruth(set.Files, q)
		if len(truth) == 0 {
			agree++
			continue
		}
		if stats.Recall(truth, local) > 0.5 {
			agree++
		}
	}
	// Off-line routing should usually land on groups holding most
	// results; allow slack since a window can straddle groups.
	if agree < n*3/4 {
		t.Fatalf("off-line routing found most results only %d/%d times", agree, n)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tree, _ := buildTestTree(t, 200, 6, 83)
	if err := tree.Validate(); err != nil {
		t.Fatalf("fresh tree invalid: %v", err)
	}
	// Corrupt a parent link.
	if !tree.Root.IsLeaf() && len(tree.Root.Children) > 0 {
		tree.Root.Children[0].Parent = nil
		if err := tree.Validate(); err == nil {
			t.Fatal("Validate missed corrupted parent link")
		}
	}
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint64(nil), a...)
	bs := append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
