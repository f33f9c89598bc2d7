package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	smartstore "repro"
)

// A sharded store behind the server must expose the per-shard breakdown
// in /v1/stats, and the serving path — unified queries, inserts, cache
// invalidation on the composed epoch — must behave exactly like the
// unsharded one.
func TestStatsExposePerShardBreakdown(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 20, Shards: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{}))
	defer ts.Close()

	stats := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := stats()
	if st.Store.Shards != 4 || len(st.Store.PerShard) != 4 {
		t.Fatalf("stats report %d shards / %d breakdown entries, want 4/4",
			st.Store.Shards, len(st.Store.PerShard))
	}
	units, files := 0, 0
	for _, sh := range st.Store.PerShard {
		if sh.Units == 0 || sh.Files == 0 {
			t.Fatalf("degenerate shard in breakdown: %+v", sh)
		}
		units += sh.Units
		files += sh.Files
	}
	if units != st.Store.Units || files != st.Store.Files {
		t.Fatalf("per-shard totals %d units / %d files do not add up to %d / %d",
			units, files, st.Store.Units, st.Store.Files)
	}

	// A mutation bumps exactly one shard's epoch and the composed epoch.
	var ins InsertResponse
	src := set.Files[3]
	rec := RecordFromFile(src)
	rec.ID = 0
	rec.Path = "/shard/insert.dat"
	if code := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{rec}}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	st2 := stats()
	if st2.Store.Epoch != st.Store.Epoch+1 {
		t.Fatalf("composed epoch %d, want %d", st2.Store.Epoch, st.Store.Epoch+1)
	}
	bumped := 0
	for i, sh := range st2.Store.PerShard {
		if sh.Epoch != st.Store.PerShard[i].Epoch {
			bumped++
		}
	}
	if bumped != 1 {
		t.Fatalf("%d shard epochs bumped by a single insert, want 1", bumped)
	}
}

// The epoch-keyed cache must invalidate on a mutation landing on any
// shard — the composed epoch is what entries are tagged with.
func TestCacheInvalidatesOnAnyShardMutation(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 20, Shards: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{CacheEntries: 64}))
	defer ts.Close()

	// The on-line path is exact on the propagated snapshot, so the
	// post-insert count is deterministic (this test is about cache
	// invalidation, not off-line recall).
	rq := WireQuery{Kind: "range", Mode: "online", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{9e9, 9e9, 9e9}}
	var first, second, third QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: rq}, &first)
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: rq}, &second)
	if !second.Cached {
		t.Fatal("repeat query not served from cache")
	}
	// Mutate: whichever shard this lands on, the composed epoch changes.
	src := RecordFromFile(set.Files[11])
	src.ID = 0
	src.Path = "/shard/invalidate.dat"
	if code := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{src}}, nil); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: rq}, &third)
	if third.Cached {
		t.Fatal("cache served a stale entry across a shard mutation")
	}
	if third.Count != first.Count+1 {
		t.Fatalf("post-insert count %d, want %d", third.Count, first.Count+1)
	}
}
