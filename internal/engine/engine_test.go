package engine

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/merge"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/trace"
)

func testConfig(units, shards int) Config {
	return Config{
		Shards:  shards,
		Units:   units,
		Attrs:   trace.DefaultQueryAttrs(),
		Tree:    semtree.Config{},
		Cluster: cluster.Config{Seed: 9},
	}
}

func buildEngine(t testing.TB, n, units, shards int) (*Engine, *trace.Set) {
	t.Helper()
	set := trace.MSN().Generate(n, 9)
	e, err := Build(set.Files, testConfig(units, shards))
	if err != nil {
		t.Fatal(err)
	}
	return e, set
}

func TestBuildValidation(t *testing.T) {
	set := trace.MSN().Generate(50, 1)
	if _, err := Build(nil, testConfig(10, 1)); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Build(set.Files, testConfig(10, 12)); err == nil {
		t.Fatal("shards > units accepted")
	}
	cfg := testConfig(10, 2)
	cfg.Tree.MinChildren = 9
	if _, err := Build(set.Files, cfg); err == nil {
		t.Fatal("invalid fan-out accepted")
	}
}

func TestUnitShare(t *testing.T) {
	// 60 units over 4 shards → 15 each; 10 over 3 → 4,3,3; population
	// clamps the share.
	total := 0
	for i := 0; i < 4; i++ {
		total += unitShare(60, 4, i, 1000)
	}
	if total != 60 {
		t.Fatalf("4-way share sums to %d", total)
	}
	if got := unitShare(10, 3, 0, 1000); got != 4 {
		t.Fatalf("remainder shard got %d units", got)
	}
	if got := unitShare(10, 3, 0, 2); got != 2 {
		t.Fatalf("clamp to population failed: %d", got)
	}
	if got := unitShare(3, 3, 2, 1000); got != 1 {
		t.Fatalf("minimum share violated: %d", got)
	}
}

func TestSingleShardKeepsCorpusOrder(t *testing.T) {
	set := trace.MSN().Generate(300, 3)
	norm := &metadata.Normalizer{}
	norm.Fit(set.Files)
	parts := partition(set.Files, 1, norm, trace.DefaultQueryAttrs())
	if len(parts) != 1 {
		t.Fatalf("%d parts", len(parts))
	}
	for i, f := range parts[0] {
		if f != set.Files[i] {
			t.Fatalf("partition reordered the single-shard corpus at %d", i)
		}
	}
}

func TestPlacementIsStable(t *testing.T) {
	e, set := buildEngine(t, 1000, 12, 4)
	// Every routed insert must land on the shard the frozen centroids
	// pick — and picking twice must agree (stability).
	for i := 0; i < 50; i++ {
		src := set.Files[i*13]
		f := &metadata.File{ID: uint64(100000 + i), Path: "/pl/x.dat", Attrs: src.Attrs}
		first := e.shardFor(f)
		if again := e.shardFor(f); again != first {
			t.Fatalf("placement unstable: %d then %d", first, again)
		}
		if _, err := e.InsertBatch([]*metadata.File{f}); err != nil {
			t.Fatal(err)
		}
		e.assignMu.RLock()
		got := e.assign[f.ID]
		e.assignMu.RUnlock()
		if got != first {
			t.Fatalf("file %d routed to shard %d, placement says %d", f.ID, got, first)
		}
	}
}

func TestIDIndexRoutesMutations(t *testing.T) {
	e, set := buildEngine(t, 800, 8, 4)
	f := set.Files[42]
	got, ok := e.FileByID(f.ID)
	if !ok || got.Path != f.Path {
		t.Fatalf("FileByID(%d) = %+v, %v", f.ID, got, ok)
	}
	if _, found, err := e.Delete(f.ID); err != nil || !found {
		t.Fatalf("delete of stored id: found=%v err=%v", found, err)
	}
	if _, ok := e.FileByID(f.ID); ok {
		t.Fatal("deleted id still resolvable")
	}
	if _, found, _ := e.Delete(f.ID); found {
		t.Fatal("second delete reported found")
	}
	if _, found, _ := e.Modify(&metadata.File{ID: 999999}); found {
		t.Fatal("modify of unknown id reported found")
	}
}

func TestRangeFanOutPrunesDisjointShards(t *testing.T) {
	e, _ := buildEngine(t, 1000, 12, 4)
	// A window outside every shard's MBR must prune everywhere: no
	// shard touches its deployment (zero messages, zero units).
	rq := query.NewRange(trace.DefaultQueryAttrs(),
		[]float64{9e15, 9e15, 9e15}, []float64{9.1e15, 9.1e15, 9.1e15})
	ans, err := e.Range(context.Background(), rq, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.IDs) != 0 {
		t.Fatalf("disjoint window matched %d ids", len(ans.IDs))
	}
	if ans.Report.Messages != 0 || ans.Report.UnitsSearched != 0 {
		t.Fatalf("pruned fan-out still did work: %+v", ans.Report)
	}
}

func TestMergeTopKBoundedHeap(t *testing.T) {
	lists := [][]merge.Cand{
		{{ID: 1, Dist: 0.1}, {ID: 3, Dist: 0.3}, {ID: 5, Dist: 0.5}},
		{{ID: 2, Dist: 0.2}, {ID: 4, Dist: 0.3}, {ID: 6, Dist: 0.6}},
		{{ID: 7, Dist: 0.05}},
	}
	got := merge.TopK(lists, 4)
	want := []uint64{7, 1, 2, 3} // 0.05, 0.1, 0.2, then the 0.3 tie → lower id
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
	// Fewer candidates than k: everything survives, ordered.
	got = merge.TopK(lists[2:], 10)
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("under-full merge %v", got)
	}
}

func TestNearestShardsFallsBackOnDisjointAttrs(t *testing.T) {
	e, _ := buildEngine(t, 800, 8, 4)
	// Queried attributes overlapping the placement predicate: routing
	// narrows to the offline shard budget.
	got := e.nearestShards(trace.DefaultQueryAttrs(), []float64{40000, 3e7, 6e7}, e.offlineMaxShards())
	if len(got) != e.offlineMaxShards() {
		t.Fatalf("overlapping attrs routed to %d shards, want %d", len(got), e.offlineMaxShards())
	}
	// Disjoint attributes (size/ctime vs the mtime/read/write placement
	// predicate): centroid distances carry no signal, so the routing
	// must fall back to every shard instead of an arbitrary prefix.
	disjoint := []metadata.Attr{metadata.AttrSize, metadata.AttrCTime}
	got = e.nearestShards(disjoint, []float64{4096, 1000}, e.offlineMaxShards())
	if len(got) != 4 {
		t.Fatalf("disjoint attrs routed to %d shards, want all 4", len(got))
	}
}

func TestFanOutCancellation(t *testing.T) {
	e, _ := buildEngine(t, 600, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Range(ctx, query.NewRange(trace.DefaultQueryAttrs(),
		[]float64{0, 0, 0}, []float64{9e9, 9e9, 9e9}), QueryOpts{}); err == nil {
		t.Fatal("cancelled fan-out returned no error")
	}
}

func TestSnapshotRoundTripKeepsAssignment(t *testing.T) {
	e, _ := buildEngine(t, 900, 12, 3)
	snap := e.Snapshot()
	if snap.ShardCount() != 3 {
		t.Fatalf("captured %d shards", snap.ShardCount())
	}
	back, err := Restore(snap, testConfig(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if back.Shards() != 3 {
		t.Fatalf("restored %d shards", back.Shards())
	}
	for i := range e.shards {
		a := e.shards[i].stats()
		b := back.shards[i].stats()
		if a.Files != b.Files || a.Units != b.Units {
			t.Fatalf("shard %d assignment drifted: %+v vs %+v", i, a, b)
		}
	}
	if back.MaxFileID() != e.MaxFileID() {
		t.Fatalf("max id %d vs %d", back.MaxFileID(), e.MaxFileID())
	}
}

func TestTopKIncludeDistsAndTargets(t *testing.T) {
	e, _ := buildEngine(t, 1000, 12, 4)
	q := query.NewTopK(trace.DefaultQueryAttrs(), []float64{40000, 3e7, 6e7}, 10)

	// On-line: every shard is a target, distances align with the ids
	// and come out ascending — the contract a federating gateway
	// merges on.
	ans, err := e.TopK(context.Background(), q, QueryOpts{Online: true, IncludeDists: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.IDs) != 10 {
		t.Fatalf("top-10 answered %d ids", len(ans.IDs))
	}
	if len(ans.Dists) != len(ans.IDs) {
		t.Fatalf("%d dists for %d ids", len(ans.Dists), len(ans.IDs))
	}
	for i := 1; i < len(ans.Dists); i++ {
		if ans.Dists[i] < ans.Dists[i-1] {
			t.Fatalf("dists not ascending: %v", ans.Dists)
		}
	}
	if len(ans.Shards) != 4 {
		t.Fatalf("on-line top-k targeted %d shards, want all 4", len(ans.Shards))
	}

	// Without IncludeDists the answer carries no distances.
	bare, err := e.TopK(context.Background(), q, QueryOpts{Online: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Dists != nil {
		t.Fatalf("dists leaked without IncludeDists: %v", bare.Dists)
	}

	// Off-line: routing narrows the target set to the shard budget,
	// and the targets name exactly the shards the cache must key on.
	off, err := e.TopK(context.Background(), q, QueryOpts{IncludeDists: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Shards) != e.offlineMaxShards() {
		t.Fatalf("off-line top-k targeted %d shards, want %d", len(off.Shards), e.offlineMaxShards())
	}
	if len(off.Dists) != len(off.IDs) {
		t.Fatalf("off-line: %d dists for %d ids", len(off.Dists), len(off.IDs))
	}
}
