package snapshot

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/stats"
	"repro/internal/trace"
)

func buildTree(t *testing.T, n, units int, seed uint64) (*semtree.Tree, *trace.Set) {
	t.Helper()
	set := trace.MSN().Generate(n, seed)
	attrs := trace.DefaultQueryAttrs()
	us := semtree.PlaceSemantic(set.Files, units, set.Norm, attrs)
	return semtree.Build(us, set.Norm, semtree.Config{Attrs: attrs}), set
}

// fileCount returns the number of persisted file records.
func fileCount(s *Snapshot) int {
	n := 0
	for _, sh := range s.Shards {
		for _, u := range sh.Units {
			n += len(u.Files)
		}
	}
	return n
}

func TestRoundTrip(t *testing.T) {
	tree, set := buildTree(t, 400, 8, 1)
	snap := CaptureShards([]*semtree.Tree{tree}, nil)
	if n := fileCount(snap); n != 400 {
		t.Fatalf("captured %d files, want 400", n)
	}

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := back.RestoreShards()
	if err != nil {
		t.Fatal(err)
	}
	restored := trees[0]
	if restored.TotalFiles() != 400 {
		t.Fatalf("restored files = %d, want 400", restored.TotalFiles())
	}
	if len(restored.Leaves()) != len(tree.Leaves()) {
		t.Fatalf("restored units = %d, want %d", len(restored.Leaves()), len(tree.Leaves()))
	}
	// Reconstruction is deterministic: the restored tree has the same
	// shape (this regressed once when the normalizer's fitted flag was
	// lost to gob and grouping silently degraded).
	s1, i1 := tree.CountNodes()
	s2, i2 := restored.CountNodes()
	if s1 != s2 || i1 != i2 {
		t.Fatalf("restored shape %d/%d, want %d/%d", s2, i2, s1, i1)
	}
	if tree.Height() != restored.Height() {
		t.Fatalf("restored height %d, want %d", restored.Height(), tree.Height())
	}

	// Every file answerable before is answerable after.
	for i := 0; i < 50; i++ {
		f := set.Files[(i*31)%len(set.Files)]
		got, _ := restored.PointQuery(query.Point{Filename: f.Path})
		found := false
		for _, id := range got {
			if id == f.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("restored tree cannot find %q", f.Path)
		}
	}
}

func TestRestoredAnswersMatchOriginal(t *testing.T) {
	tree, set := buildTree(t, 500, 10, 3)
	var buf bytes.Buffer
	if err := CaptureShards([]*semtree.Tree{tree}, nil).Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := snap.RestoreShards()
	if err != nil {
		t.Fatal(err)
	}
	restored := trees[0]
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 5)
	for i := 0; i < 25; i++ {
		q := gen.Range(0.08)
		a, _ := tree.RangeQuery(q)
		b, _ := restored.RangeQuery(q)
		if len(a) != len(b) {
			t.Fatalf("query %d: original %d results, restored %d", i, len(a), len(b))
		}
		set1 := map[uint64]bool{}
		for _, id := range a {
			set1[id] = true
		}
		for _, id := range b {
			if !set1[id] {
				t.Fatalf("query %d: restored returned extra id %d", i, id)
			}
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	tree, _ := buildTree(t, 50, 4, 7)
	snap := CaptureShards([]*semtree.Tree{tree}, nil)
	snap.Version = 99
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("Read accepted wrong format version")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

func TestReadRejectsEmptyUnits(t *testing.T) {
	snap := &Snapshot{Version: FormatVersion}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("Read accepted snapshot without units")
	}
}

func TestCaptureIsDeepCopy(t *testing.T) {
	tree, set := buildTree(t, 100, 4, 9)
	snap := CaptureShards([]*semtree.Tree{tree}, nil)
	// Mutating the live tree must not affect the captured snapshot.
	orig := snap.Shards[0].Units[0].Files[0].Attrs
	set.Files[0].Attrs[0] = -12345
	if snap.Shards[0].Units[0].Files[0].Attrs != orig {
		t.Fatal("snapshot shares file storage with the live tree")
	}
}

func TestShardEpochsRoundTrip(t *testing.T) {
	t1, _ := buildTree(t, 60, 3, 33)
	snap := CaptureShards([]*semtree.Tree{t1}, []uint64{42})
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if es := back.ShardEpochs(); len(es) != 1 || es[0] != 42 {
		t.Fatalf("ShardEpochs = %v, want [42]", es)
	}
}

// TestReadRefusesOldEnvelopes hand-encodes the two retired formats —
// v1's flat unit list and v2's shard partition without epochs, each
// otherwise well-formed — and asserts Read refuses both by version.
func TestReadRefusesOldEnvelopes(t *testing.T) {
	tree, _ := buildTree(t, 120, 4, 13)
	cur := CaptureShards([]*semtree.Tree{tree}, nil)
	type v1Envelope struct {
		Version int
		Attrs   []metadata.Attr
		Units   []UnitRecord
	}
	type v2Envelope struct {
		Version int
		Attrs   []metadata.Attr
		Shards  []struct{ Units []UnitRecord }
	}
	for name, env := range map[string]any{
		"v1": v1Envelope{Version: 1, Attrs: cur.Attrs, Units: cur.Shards[0].Units},
		"v2": v2Envelope{Version: 2, Attrs: cur.Attrs,
			Shards: []struct{ Units []UnitRecord }{{Units: cur.Shards[0].Units}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		_, err := Read(&buf)
		if err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("%s envelope: err %v, want the format-version refusal", name, err)
		}
	}
}

func TestMultiShardRoundTrip(t *testing.T) {
	t1, _ := buildTree(t, 200, 4, 21)
	t2, _ := buildTree(t, 300, 6, 22)
	snap := CaptureShards([]*semtree.Tree{t1, t2}, []uint64{7, 9})
	if snap.ShardCount() != 2 || fileCount(snap) != 500 {
		t.Fatalf("captured %d shards / %d files, want 2 / 500", snap.ShardCount(), fileCount(snap))
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := back.RestoreShards()
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("restored %d shards, want 2", len(trees))
	}
	if trees[0].TotalFiles() != 200 || trees[1].TotalFiles() != 300 {
		t.Fatalf("shard assignment did not round-trip: %d/%d files",
			trees[0].TotalFiles(), trees[1].TotalFiles())
	}
}
