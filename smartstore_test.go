package smartstore_test

import (
	"context"
	"slices"
	"testing"

	smartstore "repro"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

func buildStore(t testing.TB, n int, cfg smartstore.Config) (*smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", n, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return store, set
}

// ask runs q through Do and reports an error on t, which is safe from
// any goroutine; a failed query answers the zero Result.
func ask(t testing.TB, s *smartstore.Store, q smartstore.Query) smartstore.Result {
	t.Helper()
	res, err := s.Do(context.Background(), q)
	if err != nil {
		t.Errorf("Do(%+v): %v", q, err)
	}
	return res
}

func TestBuildErrors(t *testing.T) {
	if _, err := smartstore.Build(nil, smartstore.Config{}); err == nil {
		t.Fatal("Build(nil) should error")
	}
	set, _ := smartstore.GenerateTrace("MSN", 10, 1)
	if _, err := smartstore.Build(set.Files, smartstore.Config{Units: 100}); err == nil {
		t.Fatal("more units than files should error")
	}
	if _, err := smartstore.Build(set.Files, smartstore.Config{Units: 4, Shards: 8}); err == nil {
		t.Fatal("more shards than units should error")
	}
}

// Invalid fan-out bounds must surface as a Build error, not a panic out
// of the tree layer — configuration can arrive from daemon flags.
func TestBuildRejectsInvalidFanOut(t *testing.T) {
	set, _ := smartstore.GenerateTrace("MSN", 200, 1)
	bad := []smartstore.Config{
		{Units: 10, MaxChildren: 10, MinChildren: 7},
		{Units: 10, MaxChildren: 10, MinChildren: 1},
		{Units: 10, MaxChildren: 3, MinChildren: 2},
		{Units: 10, MaxChildren: -2},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("config %d: Build panicked: %v", i, r)
				}
			}()
			if _, err := smartstore.Build(set.Files, cfg); err == nil {
				t.Fatalf("config %d accepted: %+v", i, cfg)
			}
		}()
	}
	// The boundary values are legal and must still build.
	if _, err := smartstore.Build(set.Files, smartstore.Config{Units: 10, MaxChildren: 4, MinChildren: 2}); err != nil {
		t.Fatalf("legal fan-out rejected: %v", err)
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := smartstore.GenerateTrace("nope", 10, 1); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestStatsShape(t *testing.T) {
	store, _ := buildStore(t, 600, smartstore.Config{Units: 12})
	st := store.Stats()
	if st.Units != 12 || st.Files != 600 || st.Trees != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IndexUnits < 1 || st.TreeHeight < 2 {
		t.Fatalf("tree shape = %+v", st)
	}
	if st.IndexBytesTotal <= 0 || st.IndexBytesPerNode <= 0 {
		t.Fatalf("index size = %+v", st)
	}
}

func TestPointQuery(t *testing.T) {
	store, set := buildStore(t, 500, smartstore.Config{Units: 10})
	for i := 0; i < 50; i++ {
		f := set.Files[(i*17)%len(set.Files)]
		res := ask(t, store, smartstore.NewPointQuery(f.Path))
		found := false
		for _, id := range res.IDs {
			if id == f.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query missed %q", f.Path)
		}
		if res.Report.Latency <= 0 || res.Report.Messages == 0 {
			t.Fatalf("report = %+v", res.Report)
		}
	}
}

func TestRangeQueryOfflineAndOnline(t *testing.T) {
	for _, mode := range []smartstore.QueryMode{smartstore.ModeOffline, smartstore.ModeOnline} {
		store, set := buildStore(t, 800, smartstore.Config{Units: 10, Mode: mode, Seed: uint64(mode)})
		gen := trace.NewQueryGen(set, stats.Zipf, nil, 7)
		var rec stats.Summary
		n := 0
		for i := 0; i < 30; i++ {
			q := gen.Range(0.08)
			res := ask(t, store, smartstore.NewRangeQuery(q.Attrs, q.Lo, q.Hi))
			want := query.RangeTruth(set.Files, q)
			if len(want) == 0 {
				continue
			}
			rec.Add(stats.Recall(want, res.IDs))
			n++
		}
		if n > 0 && mode == smartstore.ModeOnline && rec.Mean() != 1 {
			t.Fatalf("online recall = %v, want 1", rec.Mean())
		}
		if n > 0 && rec.Mean() < 0.7 {
			t.Fatalf("mode %v recall = %v too low", mode, rec.Mean())
		}
	}
}

func TestTopKQueryReturnsK(t *testing.T) {
	store, set := buildStore(t, 500, smartstore.Config{Units: 8})
	gen := trace.NewQueryGen(set, stats.Gauss, nil, 11)
	for i := 0; i < 20; i++ {
		q := gen.TopK(6)
		res := ask(t, store, smartstore.NewTopKQuery(q.Attrs, q.Point, 6))
		if len(res.IDs) != 6 {
			t.Fatalf("topk returned %d, want 6", len(res.IDs))
		}
		if res.Report.Latency <= 0 {
			t.Fatal("no latency accounted")
		}
	}
}

func TestInsertDeleteModifyLifecycle(t *testing.T) {
	store, set := buildStore(t, 400, smartstore.Config{Units: 8})
	nf := &smartstore.File{ID: 777777, Path: "/lifecycle/test.bin"}
	nf.Attrs = set.Files[0].Attrs

	rep, err := store.Insert(nf)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if rep.Latency <= 0 {
		t.Fatal("insert latency missing")
	}
	if _, err := store.Insert(nf); err == nil {
		t.Fatal("re-inserting an existing id did not error")
	}
	if !slices.Contains(ask(t, store, smartstore.NewPointQuery(nf.Path)).IDs, nf.ID) {
		t.Fatal("inserted file not findable")
	}

	mod := *nf
	mod.Attrs[smartstore.AttrSize] = 1
	if _, ok, err := store.Modify(&mod); err != nil || !ok {
		t.Fatal("Modify failed")
	}
	if _, ok, err := store.Delete(nf.ID); err != nil || !ok {
		t.Fatal("Delete failed")
	}
	if _, ok, _ := store.Delete(nf.ID); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestDefaultCostModelExposed(t *testing.T) {
	if simnet.DefaultCostModel().HopLatency <= 0 {
		t.Fatal("cost model not exposed")
	}
}
