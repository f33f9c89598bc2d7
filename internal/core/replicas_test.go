package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/trace"
)

// deployLazy deploys nFiles MSN files semantically placed into nUnits
// storage units, under the lazy replica model opt configures.
func deployLazy(t testing.TB, nFiles, nUnits int, seed uint64, opt Options, virtualScale float64) (*cluster.Cluster, *LazyReplicas, *trace.Set) {
	t.Helper()
	set := trace.MSN().Generate(nFiles, seed)
	attrs := trace.DefaultQueryAttrs()
	units := semtree.PlaceSemantic(set.Files, nUnits, set.Norm, attrs)
	tree := semtree.Build(units, set.Norm, semtree.Config{Attrs: attrs})
	r := newLazyReplicas(tree, opt)
	c := cluster.New(tree, cluster.Config{Replicas: r, Seed: seed, VirtualScale: virtualScale})
	return c, r, set
}

func fullSpaceRange() query.Range {
	return query.NewRange(
		trace.DefaultQueryAttrs(),
		[]float64{-1e18, -1e18, -1e18},
		[]float64{1e18, 1e18, 1e18},
	)
}

func TestStalenessWithoutVersioning(t *testing.T) {
	c, r, set := deployLazy(t, 800, 10, 47, Options{Versioning: false, LazyThreshold: 0.5}, 0)
	// Insert new files that would match a broad query.
	var inserted []uint64
	for i := 0; i < 30; i++ {
		f := &metadata.File{ID: uint64(900000 + i), Path: "/new/f.bin"}
		f.Attrs = set.Files[i].Attrs // clone an existing profile
		c.InsertFile(f)
		inserted = append(inserted, f.ID)
	}
	// A full-space online query must miss the unpropagated inserts.
	q := fullSpaceRange()
	got, _ := c.RangeOnline(q)
	gotSet := map[uint64]bool{}
	for _, id := range got {
		gotSet[id] = true
	}
	for _, id := range inserted {
		if gotSet[id] {
			t.Fatalf("unpropagated insert %d visible without versioning", id)
		}
	}
	// After propagation they appear.
	for _, g := range c.Tree.FirstLevelIndexUnits() {
		r.propagate(g)
	}
	got, _ = c.RangeOnline(q)
	gotSet = map[uint64]bool{}
	for _, id := range got {
		gotSet[id] = true
	}
	for _, id := range inserted {
		if !gotSet[id] {
			t.Fatalf("insert %d invisible after propagation", id)
		}
	}
}

func TestVersioningRecoversRecentInserts(t *testing.T) {
	c, _, set := deployLazy(t, 800, 10, 53, Options{Versioning: true, VersionRatio: 2, LazyThreshold: 0.5}, 0)
	var inserted []uint64
	for i := 0; i < 30; i++ {
		f := &metadata.File{ID: uint64(900000 + i), Path: "/new/f.bin"}
		f.Attrs = set.Files[i].Attrs
		c.InsertFile(f)
		inserted = append(inserted, f.ID)
	}
	got, res := c.RangeOnline(fullSpaceRange())
	gotSet := map[uint64]bool{}
	for _, id := range got {
		gotSet[id] = true
	}
	for _, id := range inserted {
		if !gotSet[id] {
			t.Fatalf("versioning failed to surface insert %d", id)
		}
	}
	if res.VersionLatency <= 0 {
		t.Fatal("version latency not accounted")
	}
}

func TestLazyUpdateTriggersPropagation(t *testing.T) {
	c, r, set := deployLazy(t, 500, 5, 59, Options{Versioning: true, LazyThreshold: 0.02}, 0)
	before := r.multicasts
	for i := 0; i < 100; i++ {
		f := &metadata.File{ID: uint64(800000 + i), Path: "/bulk/f.bin"}
		f.Attrs = set.Files[i%len(set.Files)].Attrs
		c.InsertFile(f)
	}
	if r.multicasts == before {
		t.Fatal("2% threshold never triggered replica multicast over 100 inserts")
	}
}

func TestVersionLatencyScalesWithVirtualPopulation(t *testing.T) {
	opt := Options{Versioning: true, LazyThreshold: 0.9}
	c, _, set := deployLazy(t, 600, 10, 95, opt, 1000)
	for i := 0; i < 40; i++ {
		nf := *set.Files[i]
		nf.ID = uint64(700000 + i)
		nf.Path = "/v/f.bin"
		c.InsertFile(&nf)
	}
	q := fullSpaceRange()
	_, res := c.RangeOnline(q)
	if res.VersionLatency <= 0 {
		t.Fatal("no version entries examined: version latency 0")
	}
	small, _, _ := deployLazy(t, 600, 10, 95, opt, 0)
	for i := 0; i < 40; i++ {
		nf := *set.Files[i]
		nf.ID = uint64(700000 + i)
		nf.Path = "/v/f.bin"
		small.InsertFile(&nf)
	}
	_, resSmall := small.RangeOnline(q)
	if res.VersionLatency <= resSmall.VersionLatency {
		t.Fatalf("version latency %v not scaled above unscaled %v",
			res.VersionLatency, resSmall.VersionLatency)
	}
}

// TestDeleteAndModifyFile runs internal/cluster's test of the same name
// under the lazy model with versioning.
func TestDeleteAndModifyFile(t *testing.T) {
	c, _, set := deployLazy(t, 400, 8, 61, Options{Versioning: true, LazyThreshold: 0.9}, 0)
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
