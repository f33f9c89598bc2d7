package cluster

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/stats"
	"repro/internal/trace"
)

func deploy(t testing.TB, nFiles, nUnits int, seed uint64, cfg Config) (*Cluster, *trace.Set) {
	t.Helper()
	set := trace.MSN().Generate(nFiles, seed)
	attrs := trace.DefaultQueryAttrs()
	units := semtree.PlaceSemantic(set.Files, nUnits, set.Norm, attrs)
	tree := semtree.Build(units, set.Norm, semtree.Config{Attrs: attrs})
	return New(tree, cfg), set
}

func TestDeploymentMapping(t *testing.T) {
	c, _ := deploy(t, 600, 12, 1, Config{Seed: 1})
	// Every index unit is hosted by a storage unit of the tree. First-level
	// index units are hosted by one of their own child storage units
	// (§4.2: "randomly mapped to one of its child nodes"); higher levels
	// may land on any remaining server.
	for _, iu := range c.Tree.IndexUnits() {
		host := c.hostOf[iu]
		if !slices.Contains(c.Tree.Leaves(), host) {
			t.Fatalf("index unit %d not hosted by a storage unit", iu.ID)
		}
		if iu.Level == 1 && !slices.Contains(iu.Leaves(nil), host) {
			t.Fatalf("first-level index unit %d hosted outside its children (§4.2 violated)", iu.ID)
		}
	}
}

func TestIndexUnitsMappedToDistinctServers(t *testing.T) {
	c, _ := deploy(t, 800, 16, 3, Config{Seed: 3})
	storage, index := c.Tree.CountNodes()
	if index >= storage {
		t.Skipf("more index units (%d) than storage units (%d)", index, storage)
	}
	seen := map[*semtree.Node]bool{}
	for _, iu := range c.Tree.IndexUnits() {
		host := c.hostOf[iu]
		if seen[host] {
			t.Fatalf("index unit %d shares a server despite spare capacity", iu.ID)
		}
		seen[host] = true
	}
}

// TestRootReplicasOnePerGroup pins the RNG use of the §4.3 root
// placement: after mapping the index units, New draws one replica unit
// in every first-level group, and HomeUnit's stream continues from there.
func TestRootReplicasOnePerGroup(t *testing.T) {
	c, _ := deploy(t, 600, 12, 5, Config{Seed: 5})
	groups := c.Tree.FirstLevelIndexUnits()
	if len(groups) < 2 {
		t.Fatalf("%d groups; the draws need several to be told apart", len(groups))
	}
	ref := &Cluster{Tree: c.Tree, hostOf: map[*semtree.Node]*semtree.Node{}, rng: stats.NewRNG(5)}
	ref.mapIndexUnits()
	for _, g := range groups {
		ref.rng.IntN(len(g.Leaves(nil)))
	}
	for i := 0; i < 100; i++ {
		if got, want := c.HomeUnit(), ref.HomeUnit(); got != want {
			t.Fatalf("home draw %d is unit %d, want %d after one replica draw per group", i, got.ID, want.ID)
		}
	}
}

func TestRangeOnlineExactOnSnapshot(t *testing.T) {
	c, set := deploy(t, 800, 10, 7, Config{Seed: 7})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 9)
	for i := 0; i < 25; i++ {
		q := gen.Range(0.1)
		got, res := c.RangeOnline(q)
		want := query.RangeTruth(set.Files, q)
		if r := stats.Recall(want, got); r != 1 {
			t.Fatalf("online range recall = %v, want 1 on clean snapshot", r)
		}
		if res.Latency <= 0 {
			t.Fatal("latency not positive")
		}
		if res.Messages < int64(len(c.Tree.FirstLevelIndexUnits())) {
			t.Fatalf("online messages = %d, expected at least one per group", res.Messages)
		}
	}
}

func TestRangeOfflineFewerMessages(t *testing.T) {
	c, set := deploy(t, 1500, 15, 11, Config{Seed: 11})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 13)
	var onMsgs, offMsgs int64
	var onLat, offLat float64
	for i := 0; i < 30; i++ {
		q := gen.Range(0.05)
		_, on := c.RangeOnline(q)
		_, off := c.RangeOffline(q)
		onMsgs += on.Messages
		offMsgs += off.Messages
		onLat += float64(on.Latency)
		offLat += float64(off.Latency)
	}
	if offMsgs >= onMsgs {
		t.Fatalf("off-line messages %d not below on-line %d (Fig. 13b)", offMsgs, onMsgs)
	}
	if offLat >= onLat {
		t.Fatalf("off-line latency %v not below on-line %v (Fig. 13a)", offLat, onLat)
	}
}

// VirtualScale multiplies the record counts entering the cost model,
// so the same search over a scaled population reports a longer latency.
func TestVirtualScaleRaisesLatency(t *testing.T) {
	small, set := deploy(t, 500, 10, 3, Config{Seed: 3})
	big, _ := deploy(t, 500, 10, 3, Config{Seed: 3, VirtualScale: 1e6})
	// A full-space window guarantees records are scanned.
	lo, hi := set.Norm.Bounds(metadata.AttrSize)
	q, err := query.MakeRange([]metadata.Attr{metadata.AttrSize}, []float64{lo}, []float64{hi})
	if err != nil {
		t.Fatal(err)
	}
	_, rs := small.RangeOffline(q)
	_, rb := big.RangeOffline(q)
	if rb.Latency <= rs.Latency {
		t.Fatalf("scaled latency %v not above unscaled %v", rb.Latency, rs.Latency)
	}
}

func TestRangeOfflineRecallHigh(t *testing.T) {
	c, set := deploy(t, 1500, 15, 17, Config{Seed: 17})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 19)
	var rec stats.Summary
	n := 0
	for i := 0; i < 50; i++ {
		q := gen.Range(0.04)
		got, _ := c.RangeOffline(q)
		want := query.RangeTruth(set.Files, q)
		if len(want) == 0 {
			continue
		}
		rec.Add(stats.Recall(want, got))
		n++
	}
	if n == 0 {
		t.Skip("no non-empty queries")
	}
	if rec.Mean() < 0.7 {
		t.Fatalf("off-line Zipf range recall = %v, want ≥ 0.7 (paper: 87–91%%)", rec.Mean())
	}
}

func TestTopKOfflineReturnsK(t *testing.T) {
	c, set := deploy(t, 800, 10, 23, Config{Seed: 23})
	gen := trace.NewQueryGen(set, stats.Gauss, nil, 29)
	for i := 0; i < 20; i++ {
		q := gen.TopK(8)
		got, res := c.TopKOffline(q)
		if len(got) != 8 {
			t.Fatalf("topk returned %d ids, want 8", len(got))
		}
		if res.Latency <= 0 {
			t.Fatal("latency not positive")
		}
	}
}

func TestTopKOnlineRecallExactOnSnapshot(t *testing.T) {
	c, set := deploy(t, 600, 8, 31, Config{Seed: 31})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 37)
	for i := 0; i < 15; i++ {
		q := gen.TopK(8)
		got, _ := c.TopKOnline(q)
		want := query.TopKTruth(set.Files, set.Norm, q)
		// Compare achieved k-th distance: online search is exhaustive so
		// the distance profile must match the truth.
		byID := map[uint64]*metadata.File{}
		for _, f := range set.Files {
			byID[f.ID] = f
		}
		var gotWorst, wantWorst float64
		for _, id := range got {
			if d := q.Dist(set.Norm, byID[id]); d > gotWorst {
				gotWorst = d
			}
		}
		for _, id := range want {
			if d := q.Dist(set.Norm, byID[id]); d > wantWorst {
				wantWorst = d
			}
		}
		if gotWorst > wantWorst+1e-9 {
			t.Fatalf("online topk k-th distance %v worse than truth %v", gotWorst, wantWorst)
		}
	}
}

// TestRerankTopKTiesAcrossGroups pools two groups' answers in group
// order, as runComplex does, on a one-attribute query whose point is an
// access count files of both groups share, so several candidates from
// each group sit at exactly the same distance. The rerank must return
// them ascending by (dist, id), interleaving the groups, and skip an id
// no file resolves to.
func TestRerankTopKTiesAcrossGroups(t *testing.T) {
	c, _ := deploy(t, 2000, 24, 41, Config{Seed: 41})
	groups := c.Tree.FirstLevelIndexUnits()
	g1, g2 := groups[0], groups[1]
	idsAt := func(g *semtree.Node) map[float64][]uint64 {
		m := map[float64][]uint64{}
		for _, l := range g.Leaves(nil) {
			for _, f := range l.Unit.Files {
				v := f.Attrs[metadata.AttrAccessFreq]
				m[v] = append(m[v], f.ID)
			}
		}
		return m
	}
	at1, at2 := idsAt(g1), idsAt(g2)
	// A shared count where the second group holds a lower id than the
	// first: pooled in group order, the tied ids arrive out of id order.
	point, tied := 0.0, 0
	for v, ids1 := range at1 {
		ids2 := at2[v]
		if n := len(ids1) + len(ids2); len(ids2) > 0 && slices.Min(ids2) < slices.Max(ids1) &&
			(n > tied || n == tied && v < point) {
			point, tied = v, n
		}
	}
	if tied == 0 {
		t.Fatal("no access count shared out of id order by the two groups; the tie is not exercised")
	}
	q := query.NewTopK([]metadata.Attr{metadata.AttrAccessFreq}, []float64{point}, tied+4)
	ids1, _ := c.Tree.SearchGroupTopK(g1, q)
	ids2, _ := c.Tree.SearchGroupTopK(g2, q)
	const unresolved = ^uint64(0)
	pool := slices.Concat(ids1, []uint64{unresolved}, ids2)

	got := c.rerankTopK(pool, q)
	type cand struct {
		id   uint64
		dist float64
	}
	var want []cand
	for _, id := range pool {
		if f, ok := c.FileByID(id); ok {
			want = append(want, cand{id, q.Dist(c.Tree.Norm, f)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].dist != want[j].dist {
			return want[i].dist < want[j].dist
		}
		return want[i].id < want[j].id
	})
	want = want[:q.K]
	if len(got) != len(want) {
		t.Fatalf("rerank returned %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("rank %d: got id %d, want %d (dist %v); %d tied at dist %v", i, got[i], want[i].id, want[i].dist, tied, want[0].dist)
		}
	}
}

func TestPointQueryHitRate(t *testing.T) {
	c, set := deploy(t, 600, 10, 41, Config{Seed: 41})
	gen := trace.NewQueryGen(set, stats.Uniform, nil, 43)
	hits := 0
	const n = 200
	for i := 0; i < n; i++ {
		p := gen.Point(1.0) // always existing files
		got, _ := c.Point(p)
		want := query.PointTruth(set.Files, p)
		if stats.Recall(want, got) == 1 {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.88 {
		t.Fatalf("point hit rate = %v, want ≥ 0.88 (Fig. 9)", frac)
	}
}

// TestNoLazyModelWithoutThreshold pins the serving default: with no
// lazy-update threshold an insert, a modify and a delete are visible
// to the very next query, and no change sends a replica message.
func TestNoLazyModelWithoutThreshold(t *testing.T) {
	c, set := deploy(t, 800, 10, 47, Config{Seed: 47})
	all := query.NewRange(
		trace.DefaultQueryAttrs(),
		[]float64{-1e18, -1e18, -1e18},
		[]float64{1e18, 1e18, 1e18},
	)
	has := func(ids []uint64, id uint64) bool { return slices.Contains(ids, id) }

	attrs := trace.DefaultQueryAttrs()
	f := &metadata.File{ID: 900000, Path: "/new/f.bin", Attrs: set.Files[3].Attrs}
	f.Attrs[attrs[0]] += 0.5 // no stored file shares its attributes
	at := make([]float64, len(attrs))
	for i, a := range attrs {
		at[i] = f.Attrs[a]
	}
	if _, want := updateCost(defaultCost); c.InsertFile(f).Messages != want {
		t.Fatalf("insert sent a replica multicast, want only the %d update messages", want)
	}
	if got, _ := c.Point(query.Point{Filename: f.Path}); !has(got, f.ID) {
		t.Fatal("insert invisible to a point query")
	}
	if got, _ := c.RangeOnline(all); !has(got, f.ID) {
		t.Fatal("insert invisible to an on-line range")
	}
	if got, _ := c.TopKOnline(query.NewTopK(attrs, at, 1)); !has(got, f.ID) {
		t.Fatal("insert is not its own nearest neighbour")
	}

	mod := *set.Files[5]
	mod.Attrs[metadata.AttrSize] = 42
	res, ok := c.ModifyFile(&mod)
	if !ok {
		t.Fatal("ModifyFile failed")
	}
	if _, want := updateCost(defaultCost); res.Messages != want {
		t.Fatalf("modify sent %d messages, want only the %d update messages", res.Messages, want)
	}
	if got, _ := c.RangeOnline(all); !has(got, mod.ID) {
		t.Fatal("modified file vanished from an on-line range")
	}

	res, ok = c.DeleteFile(f.ID)
	if !ok {
		t.Fatal("DeleteFile failed")
	}
	if _, want := updateCost(defaultCost); res.Messages != want {
		t.Fatalf("delete sent %d messages, want only the %d update messages", res.Messages, want)
	}
	if got, _ := c.RangeOnline(all); has(got, f.ID) {
		t.Fatal("deleted file still answers")
	}
}

// TestDeleteAndModifyFile runs without a replica model; internal/core
// runs the same steps under its lazy one.
func TestDeleteAndModifyFile(t *testing.T) {
	c, set := deploy(t, 400, 8, 61, Config{Seed: 61})
	target := set.Files[17]

	if _, ok := c.DeleteFile(target.ID); !ok {
		t.Fatal("DeleteFile failed")
	}
	if _, ok := c.DeleteFile(target.ID); ok {
		t.Fatal("double delete succeeded")
	}
	got, _ := c.Point(query.Point{Filename: target.Path})
	for _, id := range got {
		if id == target.ID {
			t.Fatal("deleted file still returned")
		}
	}

	mod := *set.Files[18]
	mod.Attrs[metadata.AttrSize] = 42
	if _, ok := c.ModifyFile(&mod); !ok {
		t.Fatal("ModifyFile failed")
	}
	if _, ok := c.ModifyFile(&metadata.File{ID: 12345678}); ok {
		t.Fatal("modify of missing file succeeded")
	}
}

func TestHopsHistogramMostlyZero(t *testing.T) {
	c, set := deploy(t, 2000, 20, 67, Config{Seed: 67})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 71)
	h := stats.NewHistogram(8)
	for i := 0; i < 100; i++ {
		q := gen.Range(0.03)
		_, res := c.RangeOffline(q)
		h.Add(res.Hops)
	}
	if h.Fraction(0) < 0.8 {
		t.Fatalf("0-hop fraction = %v, want ≥ 0.8 for off-line routing (Fig. 8)", h.Fraction(0))
	}
}

func TestIndexSizeBytes(t *testing.T) {
	c, _ := deploy(t, 500, 10, 73, Config{Seed: 73})
	if c.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes must be positive")
	}
}
