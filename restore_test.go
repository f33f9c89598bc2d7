package smartstore_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	smartstore "repro"
	"repro/internal/stats"
	"repro/internal/trace"
)

// restoreAnswers runs a fixed query stream — point queries over stored
// and absent names, then range and top-k queries over attribute subsets
// other than the grouping predicate — and returns every answer's ids.
// Ids, not reports: a report depends on how many home-unit draws came
// before it, which differs between a store and its restored copy.
func restoreAnswers(t *testing.T, s *smartstore.Store, set *smartstore.TraceSet) [][]uint64 {
	var out [][]uint64
	pg := trace.NewQueryGen(set, stats.Uniform, nil, 5)
	for i := 0; i < 20; i++ {
		out = append(out, ask(t, s, smartstore.NewPointQuery(pg.Point(0.8).Filename)).IDs)
	}
	subsets := [][]smartstore.Attr{
		{smartstore.AttrSize},
		{smartstore.AttrSize, smartstore.AttrCTime},
		{smartstore.AttrAccessFreq},
		{smartstore.AttrATime, smartstore.AttrReadBytes},
	}
	for i, attrs := range subsets {
		gen := trace.NewQueryGen(set, stats.Zipf, attrs, uint64(100+i))
		for j := 0; j < 10; j++ {
			r, k := gen.Range(0.1), gen.TopK(8)
			out = append(out,
				ask(t, s, smartstore.NewRangeQuery(r.Attrs, r.Lo, r.Hi)).IDs,
				ask(t, s, smartstore.NewTopKQuery(k.Attrs, k.Point, 8)).IDs)
		}
	}
	return out
}

// TestRestoreAnswersMatch pins what a restart preserves: a store with no
// unflushed changes, restored through each path under each deployment
// configuration, answers a fixed query stream with exactly the ids the
// original did and resumes the original's shard epochs. The paths are
// crash recovery (Checkpoint, Close, Open), an in-memory Load of a Save,
// and a Load of a Save into a fresh data dir — how a durable replication
// follower bootstraps. The knobs a snapshot does not carry (Mode,
// Versioning, Seed, OfflineGroupBudget) are passed identically on both
// sides.
//
// The "unflushed" row pins today's behaviour when the store does hold
// unpropagated changes (ROADMAP item 10, "restore is an implicit
// propagation point"): the snapshot carries the inserted file but not
// the cluster's pending set, so the restored store answers with the
// insert the original still hides — at the same shard epochs, which an
// epoch-keyed cache cannot tell apart.
func TestRestoreAnswersMatch(t *testing.T) {
	paths := []struct {
		name    string
		restore restorer
	}{
		{"checkpoint-close-open", func(t *testing.T, s *smartstore.Store, cfg smartstore.Config) *smartstore.Store {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := smartstore.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
		{"save-load", viaSave(false)},
		{"save-load-replica", viaSave(true)},
	}
	configs := []struct {
		name      string
		cfg       smartstore.Config
		unflushed bool
	}{
		{name: "offline", cfg: smartstore.Config{}},
		{name: "online", cfg: smartstore.Config{Mode: smartstore.OnLine}},
		{name: "versioning", cfg: smartstore.Config{Versioning: true}},
		{name: "unflushed", cfg: smartstore.Config{LazyUpdateThreshold: 0.9}, unflushed: true},
	}
	set, err := smartstore.GenerateTrace("MSN", 600, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for _, c := range configs {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", p.name, c.name, shards), func(t *testing.T) {
					cfg := c.cfg
					cfg.Units, cfg.Shards, cfg.Seed = 12, shards, 9
					cfg.DataDir, cfg.Durability = t.TempDir(), smartstore.DurabilityNever
					s, err := smartstore.Build(cloneFiles(set.Files), cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.Close() })
					if c.unflushed {
						checkUnflushedRestore(t, s, set, cfg, p.restore)
						return
					}
					mutateForRestore(t, s, set)
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					want, epochs := restoreAnswers(t, s, set), s.ShardEpochs()
					r := p.restore(t, s, cfg)
					got := restoreAnswers(t, r, set)
					for i := range want {
						if !slices.Equal(got[i], want[i]) {
							t.Fatalf("query %d: restored ids %v, original %v", i, got[i], want[i])
						}
					}
					if !slices.Equal(r.ShardEpochs(), epochs) {
						t.Fatalf("restored epochs %v, original %v", r.ShardEpochs(), epochs)
					}
				})
			}
		}
	}
}

// restorer brings a store back from its persisted state under cfg.
type restorer func(t *testing.T, s *smartstore.Store, cfg smartstore.Config) *smartstore.Store

// viaSave loads a copy of s from its Save output, in memory or, when
// durable, into a fresh data dir.
func viaSave(durable bool) restorer {
	return func(t *testing.T, s *smartstore.Store, cfg smartstore.Config) *smartstore.Store {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		cfg.DataDir = ""
		if durable {
			cfg.DataDir = t.TempDir()
		}
		r, err := smartstore.Load(&buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
}

// mutateForRestore gives a store some history before its snapshot:
// inserts of fresh files, modifies of original ones, and deletes of
// both.
func mutateForRestore(t *testing.T, s *smartstore.Store, set *smartstore.TraceSet) {
	t.Helper()
	for i := 0; i < 30; i++ {
		nf := *set.Files[(i*37)%len(set.Files)]
		nf.ID, nf.Path = uint64(900000+i), fmt.Sprintf("/restore/new-%d", i)
		if _, err := s.Insert(&nf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mod := *set.Files[i*13+5]
		mod.Attrs[smartstore.AttrSize] *= 2
		if _, _, err := s.Modify(&mod); err != nil {
			t.Fatal(err)
		}
	}
	var gone []uint64
	for i := 0; i < 30; i++ {
		gone = append(gone, set.Files[i*19+3].ID)
	}
	for i := 0; i < 30; i += 3 {
		gone = append(gone, uint64(900000+i))
	}
	for _, id := range gone {
		if _, found, err := s.Delete(id); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", id, found, err)
		}
	}
}

// checkUnflushedRestore inserts one file without flushing, restores,
// and asserts the documented behaviour: the original hides the insert,
// the restored store shows it, and both report the same shard epochs.
func checkUnflushedRestore(t *testing.T, s *smartstore.Store, set *smartstore.TraceSet, cfg smartstore.Config,
	restore restorer) {
	t.Helper()
	nf := *set.Files[0]
	nf.ID, nf.Path = 990000, "/restore/unflushed.bin"
	if _, err := s.Insert(&nf); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(ask(t, s, smartstore.NewPointQuery(nf.Path)).IDs, nf.ID) {
		t.Fatal("unflushed insert visible on the original")
	}
	epochs := s.ShardEpochs()
	r := restore(t, s, cfg)
	if !slices.Contains(ask(t, r, smartstore.NewPointQuery(nf.Path)).IDs, nf.ID) {
		t.Fatal("unflushed insert hidden after restore; update ROADMAP item 10 and DESIGN §7/§11 if this is now fixed")
	}
	if !slices.Equal(r.ShardEpochs(), epochs) {
		t.Fatalf("restored epochs %v, original %v", r.ShardEpochs(), epochs)
	}
}
