package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	smartstore "repro"
	"repro/internal/metadata"
)

// newTestStore builds a small deterministic store plus its trace set.
func newTestStore(t testing.TB) (*smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", 1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return store, set
}

func newTestServer(t testing.TB, opts Options) (*httptest.Server, *smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	store, set := newTestStore(t)
	ts := httptest.NewServer(New(store, opts))
	t.Cleanup(ts.Close)
	return ts, store, set
}

// postJSON round-trips one request and decodes into out, returning the
// status code.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// postQuery posts one query to the unified endpoint.
func postQuery(t *testing.T, base string, wq WireQuery, out any) int {
	t.Helper()
	return postJSON(t, base+"/v1/query", QueryRequest{WireQuery: wq}, out)
}

func defaultNames() []string {
	return []string{"mtime", "read_bytes", "write_bytes"}
}

func TestPointEndpoint(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})
	want := set.Files[7]
	var resp QueryResponse
	if code := postQuery(t, ts.URL, WireQuery{Kind: "point", Path: want.Path}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	found := false
	for _, id := range resp.IDs {
		if id == want.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("point query for %q: ids %v missing %d", want.Path, resp.IDs, want.ID)
	}
	if resp.Report.Messages == 0 {
		t.Fatal("point query reported zero messages")
	}
}

func TestRangeEndpointMatchesDirectQuery(t *testing.T) {
	ts, store, _ := newTestServer(t, Options{CacheEntries: -1})
	attrs := []metadata.Attr{metadata.AttrMTime, metadata.AttrReadBytes}
	lo := []float64{0, 0}
	hi := []float64{1e9, 1e12}

	var resp QueryResponse
	if code := postQuery(t, ts.URL,
		WireQuery{Kind: "range", Attrs: []string{"mtime", "read_bytes"}, Lo: lo, Hi: hi}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	direct, err := store.Do(context.Background(), smartstore.NewRangeQuery(attrs, lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != len(direct.IDs) {
		t.Fatalf("served %d ids, direct query %d", len(resp.IDs), len(direct.IDs))
	}
	if resp.Count != len(resp.IDs) {
		t.Fatalf("count %d != len(ids) %d", resp.Count, len(resp.IDs))
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})
	anchor := set.Files[11]
	req := WireQuery{
		Kind:  "topk",
		Attrs: defaultNames(),
		Point: []float64{
			anchor.Attrs[metadata.AttrMTime],
			anchor.Attrs[metadata.AttrReadBytes],
			anchor.Attrs[metadata.AttrWriteBytes],
		},
		K: 8,
	}
	var resp QueryResponse
	if code := postQuery(t, ts.URL, req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.IDs) != 8 {
		t.Fatalf("top-8 returned %d ids", len(resp.IDs))
	}
}

func TestInsertDeleteModifyRoundTrip(t *testing.T) {
	ts, store, set := newTestServer(t, Options{})
	src := set.Files[3]
	maxBefore := store.MaxFileID()

	// Batch insert: one explicit id, one server-assigned.
	rec := RecordFromFile(src)
	rec.ID = 0
	rec.Path = "/served/auto.dat"
	explicit := RecordFromFile(src)
	explicit.ID = 999_999
	explicit.Path = "/served/explicit.dat"
	var ins InsertResponse
	if code := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{rec, explicit}}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ins.Inserted != 2 || len(ins.IDs) != 2 {
		t.Fatalf("insert response %+v", ins)
	}
	if ins.IDs[0] <= maxBefore {
		t.Fatalf("auto id %d not allocated above pre-insert max %d", ins.IDs[0], maxBefore)
	}
	if ins.IDs[1] != 999_999 {
		t.Fatalf("explicit id not honoured: %d", ins.IDs[1])
	}
	if ins.Epoch == 0 {
		t.Fatal("insert did not bump epoch")
	}

	// Auto-allocated ids must stay above any explicit id seen so far —
	// a later id-less insert cannot collide with 999_999.
	later := RecordFromFile(src)
	later.ID = 0
	later.Path = "/served/after-explicit.dat"
	var ins2 InsertResponse
	if code := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{later}}, &ins2); code != 200 {
		t.Fatalf("second insert status %d", code)
	}
	if ins2.IDs[0] <= 999_999 {
		t.Fatalf("auto id %d collides with explicit id range", ins2.IDs[0])
	}

	// Inserted files become point-query visible after propagation.
	var fl FlushResponse
	if code := postJSON(t, ts.URL+"/v1/flush", struct{}{}, &fl); code != 200 {
		t.Fatalf("flush status %d", code)
	}
	var pt QueryResponse
	if code := postQuery(t, ts.URL, WireQuery{Kind: "point", Path: "/served/auto.dat"}, &pt); code != 200 {
		t.Fatalf("point status %d", code)
	}
	if len(pt.IDs) != 1 || pt.IDs[0] != ins.IDs[0] {
		t.Fatalf("point after insert+flush: %v want [%d]", pt.IDs, ins.IDs[0])
	}

	// Modify the explicit file with a partial attrs map: only the named
	// attribute changes, the rest of the vector keeps its stored values.
	var mod MutateResponse
	partial := FileRecord{ID: 999_999, Attrs: map[string]float64{"size": 1234}}
	if code := postJSON(t, ts.URL+"/v1/modify", ModifyRequest{File: partial}, &mod); code != 200 {
		t.Fatalf("modify status %d", code)
	}
	if !mod.Found {
		t.Fatal("modify did not find inserted file")
	}
	got, ok := store.FileByID(999_999)
	if !ok {
		t.Fatal("modified file vanished")
	}
	if got.Attrs[metadata.AttrSize] != 1234 {
		t.Fatalf("modify did not apply size: %v", got.Attrs[metadata.AttrSize])
	}
	if got.Attrs[metadata.AttrMTime] != src.Attrs[metadata.AttrMTime] {
		t.Fatalf("partial modify zeroed mtime: %v want %v",
			got.Attrs[metadata.AttrMTime], src.Attrs[metadata.AttrMTime])
	}

	// Delete it; a second delete reports found=false.
	var del MutateResponse
	if code := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{ID: 999_999}, &del); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if !del.Found {
		t.Fatal("delete did not find file")
	}
	if code := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{ID: 999_999}, &del); code != 200 {
		t.Fatalf("re-delete status %d", code)
	}
	if del.Found {
		t.Fatal("second delete of same id reported found")
	}
}

// TestConcurrentPartialModifiesKeepBoth: two /v1/modify calls on one id
// naming disjoint attributes are both acknowledged, so both must
// survive — the merge happens under the owning shard's write lock, not
// on a copy read before it.
func TestConcurrentPartialModifiesKeepBoth(t *testing.T) {
	store, set := newTestStore(t)
	srv := New(store, Options{})
	const n = 200
	var wg sync.WaitGroup
	for _, f := range set.Files[:n] {
		for _, attrs := range []map[string]float64{{"size": 111}, {"mtime": 222}} {
			wg.Add(1)
			go func(rec FileRecord) {
				defer wg.Done()
				if resp, err := srv.Modify(context.Background(), rec); err != nil || !resp.Found {
					t.Errorf("modify %d %v: found=%v err=%v", rec.ID, rec.Attrs, resp.Found, err)
				}
			}(FileRecord{ID: f.ID, Attrs: attrs})
		}
	}
	wg.Wait()
	lost := 0
	for _, f := range set.Files[:n] {
		got, _ := store.FileByID(f.ID)
		if got.Attrs[metadata.AttrSize] != 111 || got.Attrs[metadata.AttrMTime] != 222 {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d ids lost an acknowledged partial modify", lost, n)
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	ts, _, set := newTestServer(t, Options{CacheEntries: 64})
	req := WireQuery{Kind: "range", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}}

	var first, second, third QueryResponse
	postQuery(t, ts.URL, req, &first)
	if first.Cached {
		t.Fatal("first execution reported cached")
	}
	postQuery(t, ts.URL, req, &second)
	if !second.Cached {
		t.Fatal("repeat query not served from cache")
	}
	if len(second.IDs) != len(first.IDs) {
		t.Fatalf("cached result differs: %d vs %d ids", len(second.IDs), len(first.IDs))
	}

	// Any mutation bumps the epoch and invalidates.
	rec := RecordFromFile(set.Files[0])
	rec.ID = 0
	rec.Path = "/cache/invalidate.dat"
	var ins InsertResponse
	postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{rec}}, &ins)

	postQuery(t, ts.URL, req, &third)
	if third.Cached {
		t.Fatal("query after mutation still served from cache")
	}

	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	c := st.Server.Cache
	if c.Hits < 1 || c.Invalidations < 1 {
		t.Fatalf("cache stats %+v: want ≥1 hit and ≥1 invalidation", c)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, store, _ := newTestServer(t, Options{})
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	direct := store.Stats()
	if st.Store.Files != direct.Files || st.Store.Units != direct.Units {
		t.Fatalf("stats mismatch: wire %+v direct %+v", st.Store, direct)
	}
	if st.Server.Workers <= 0 {
		t.Fatalf("worker pool not reported: %+v", st.Server)
	}
	if st.WAL != nil {
		t.Fatalf("in-memory store reported WAL stats: %+v", st.WAL)
	}
}

// TestStatsEndpointWALSection: a durable store's /v1/stats carries the
// segment inventory, the group-commit counters and the durable
// watermark.
func TestStatsEndpointWALSection(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 400, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 8, Shards: 2, Seed: 42,
		DataDir:    t.TempDir(),
		Durability: smartstore.DurabilityAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(New(store, Options{}))
	t.Cleanup(ts.Close)

	var ins InsertResponse
	if code := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{
		{Path: "/wal/a.dat", Attrs: map[string]float64{"size": 4096, "mtime": 41000}},
	}}, &ins); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil {
		t.Fatal("durable store reported no WAL stats")
	}
	if st.WAL.Segments < 2 || st.WAL.Bytes == 0 {
		t.Fatalf("implausible WAL inventory: %+v", st.WAL)
	}
	if st.WAL.GroupCommits == 0 || st.WAL.GroupedRecords == 0 {
		t.Fatalf("group-commit counters not surfaced: %+v", st.WAL)
	}
	// The insert was acknowledged under DurabilityAlways, so nothing
	// sits above the fsync watermark.
	if st.WAL.DurableBytes == 0 || st.WAL.DurableBytes != st.WAL.Bytes {
		t.Fatalf("durable watermark %d of %d bytes after an acked insert", st.WAL.DurableBytes, st.WAL.Bytes)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"unknown attr", "/v1/query",
			WireQuery{Kind: "range", Attrs: []string{"nonsense"}, Lo: []float64{0}, Hi: []float64{1}}},
		{"dim mismatch", "/v1/query",
			WireQuery{Kind: "range", Attrs: []string{"mtime"}, Lo: []float64{0, 1}, Hi: []float64{1}}},
		{"bad k", "/v1/query",
			WireQuery{Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{0}, K: 0}},
		{"empty point", "/v1/query", WireQuery{Kind: "point"}},
		{"empty insert", "/v1/insert", InsertRequest{}},
		{"insert missing path", "/v1/insert",
			InsertRequest{Files: []FileRecord{{Attrs: map[string]float64{"size": 1}}}}},
		{"insert duplicate of stored id", "/v1/insert",
			InsertRequest{Files: []FileRecord{{ID: 5, Path: "/dup/stored.dat"}}}},
		{"insert duplicate within batch", "/v1/insert",
			InsertRequest{Files: []FileRecord{
				{ID: 777_777, Path: "/dup/a.dat"}, {ID: 777_777, Path: "/dup/b.dat"}}}},
		{"delete missing id", "/v1/delete", DeleteRequest{}},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+tc.path, tc.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	// Wrong method on a POST route.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status %d, want 405", resp.StatusCode)
	}

	// A retired per-kind route is unknown to the mux like any other.
	if code := postJSON(t, ts.URL+"/v1/query/point", WireQuery{Kind: "point", Path: "/x"}, nil); code != http.StatusNotFound {
		t.Errorf("POST /v1/query/point: status %d, want 404", code)
	}
}

// TestInsertClassifiesBatchErrors: a batch the engine refuses (duplicate
// id) is the client's fault, a WAL that rejects the append is not — the
// same failure on /v1/delete answers 500, and a gateway in front must
// see a 5xx to mark the member down.
func TestInsertClassifiesBatchErrors(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 400, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 8, Seed: 42,
		DataDir:    t.TempDir(),
		Durability: smartstore.DurabilityAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{}))
	t.Cleanup(ts.Close)

	dup := InsertRequest{Files: []FileRecord{{ID: set.Files[0].ID, Path: "/dup/stored.dat"}}}
	if code := postJSON(t, ts.URL+"/v1/insert", dup, nil); code != http.StatusBadRequest {
		t.Fatalf("duplicate id: status %d, want 400", code)
	}
	// Closing a durable store closes its logs: every append now fails.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := InsertRequest{Files: []FileRecord{{Path: "/wal/rejected.dat", Attrs: map[string]float64{"size": 1}}}}
	if code := postJSON(t, ts.URL+"/v1/insert", fresh, nil); code != http.StatusInternalServerError {
		t.Fatalf("insert with the WAL rejecting appends: status %d, want 500", code)
	}
	if code := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{ID: set.Files[1].ID}, nil); code != http.StatusInternalServerError {
		t.Fatalf("delete with the WAL rejecting appends: status %d, want 500", code)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestAdmissionShedsLoadWhenSaturated(t *testing.T) {
	store, _ := newTestStore(t)
	s := New(store, Options{Workers: 1, MaxQueue: 1})

	// Occupy the single worker slot and fill the wait queue, then the
	// next admission must be rejected rather than queued. inflight
	// counts executing + waiting, so Workers+MaxQueue saturates it.
	s.sem <- struct{}{}
	s.inflight.Add(int64(s.opts.Workers + s.opts.MaxQueue))
	req := httptest.NewRequest("POST", "/v1/query", nil)
	if _, err := s.admit(req); err != errBusy {
		t.Fatalf("saturated admit: err %v, want errBusy", err)
	}
	s.inflight.Add(-int64(s.opts.Workers + s.opts.MaxQueue))

	// A queued request whose client goes away is released with the
	// context error, not left blocked.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.admit(req.WithContext(ctx)); err != context.Canceled {
		t.Fatalf("cancelled admit: err %v, want context.Canceled", err)
	}
	<-s.sem

	// With the slot free again, admission succeeds.
	release, err := s.admit(httptest.NewRequest("POST", "/v1/query", nil))
	if err != nil {
		t.Fatalf("free admit: %v", err)
	}
	release()
}

func TestQueryCacheLRUAndEpoch(t *testing.T) {
	c := newQueryCache(2)
	resp := QueryResponse{IDs: []uint64{1}, Count: 1, Report: Report{Messages: 3}}
	all := []int{0, 1}
	epochs := []uint64{1, 1}
	c.put("a", all, epochs, resp)
	c.put("b", all, epochs, resp)

	got, ok := c.get("a", epochs)
	if !ok {
		t.Fatal("a missing")
	}
	if !got.Cached || got.Count != 1 || got.Report.Messages != 3 {
		t.Fatalf("cached response mangled: %+v", got)
	}
	// a is now most recent; inserting c evicts b.
	c.put("c", all, epochs, resp)
	if _, ok := c.get("b", epochs); ok {
		t.Fatal("b not evicted as LRU")
	}
	if _, ok := c.get("a", epochs); !ok {
		t.Fatal("a evicted despite being MRU")
	}

	// A target shard's epoch moving invalidates.
	if _, ok := c.get("a", []uint64{1, 2}); ok {
		t.Fatal("stale-epoch entry served")
	}
	st := c.stats()
	if st.Invalidations != 1 || st.Evictions != 1 {
		t.Fatalf("cache stats %+v", st)
	}

	// A nil cache (caching disabled) is inert.
	var disabled *queryCache
	disabled.put("x", all, epochs, resp)
	if _, ok := disabled.get("x", epochs); ok {
		t.Fatal("nil cache returned a hit")
	}
}

// TestQueryCachePerShardInvalidation is the ROADMAP follow-up contract:
// an entry keyed on a target subset of shards survives writes that
// land on shards outside that subset.
func TestQueryCachePerShardInvalidation(t *testing.T) {
	c := newQueryCache(4)
	resp := QueryResponse{IDs: []uint64{9}, Count: 1}
	// Entry targeting only shard 0 of a 4-shard deployment.
	c.put("hot", []int{0}, []uint64{5, 7, 2, 9}, resp)

	// Writes on shards 1..3 move their epochs; shard 0 untouched.
	if _, ok := c.get("hot", []uint64{5, 8, 3, 11}); !ok {
		t.Fatal("entry invalidated by writes on non-target shards")
	}
	// A write on shard 0 invalidates.
	if _, ok := c.get("hot", []uint64{6, 8, 3, 11}); ok {
		t.Fatal("entry survived a write on its target shard")
	}

	// A multi-target entry invalidates on any of its targets.
	c.put("pair", []int{1, 3}, []uint64{5, 7, 2, 9}, resp)
	if _, ok := c.get("pair", []uint64{99, 7, 88, 9}); !ok {
		t.Fatal("pair entry invalidated by non-target shards")
	}
	if _, ok := c.get("pair", []uint64{5, 7, 2, 10}); ok {
		t.Fatal("pair entry survived a target-shard write")
	}

	// An empty target set is never cached (it could never invalidate).
	c.put("none", nil, []uint64{1}, resp)
	if _, ok := c.get("none", []uint64{1}); ok {
		t.Fatal("target-less entry cached")
	}
	// A target outside the epoch vector fails closed on lookup.
	c.put("wide", []int{3}, []uint64{1, 1, 1, 1}, resp)
	if _, ok := c.get("wide", []uint64{1, 1}); ok {
		t.Fatal("entry with out-of-range target served")
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	rq := func(attrs []smartstore.Attr, lo, hi []float64) smartstore.Query {
		return smartstore.NewRangeQuery(attrs, lo, hi)
	}
	a := queryKey(rq([]smartstore.Attr{metadata.AttrMTime, metadata.AttrSize},
		[]float64{1, 3}, []float64{2, 4}), smartstore.ModeOffline)
	b := queryKey(rq([]smartstore.Attr{metadata.AttrSize, metadata.AttrMTime},
		[]float64{3, 1}, []float64{4, 2}), smartstore.ModeOffline)
	if a != b {
		t.Fatalf("permuted range dims key differently:\n%s\n%s", a, b)
	}
	k1 := queryKey(smartstore.NewTopKQuery([]smartstore.Attr{metadata.AttrSize, metadata.AttrMTime}, []float64{5, 6}, 3), smartstore.ModeOffline)
	k2 := queryKey(smartstore.NewTopKQuery([]smartstore.Attr{metadata.AttrMTime, metadata.AttrSize}, []float64{6, 5}, 3), smartstore.ModeOffline)
	if k1 != k2 {
		t.Fatalf("permuted topk dims key differently:\n%s\n%s", k1, k2)
	}
	if queryKey(smartstore.NewTopKQuery([]smartstore.Attr{metadata.AttrSize}, []float64{5}, 3), smartstore.ModeOffline) ==
		queryKey(smartstore.NewTopKQuery([]smartstore.Attr{metadata.AttrSize}, []float64{5}, 4), smartstore.ModeOffline) {
		t.Fatal("k not part of topk key")
	}

	// Options that change the answer's content must change the key:
	// execution mode, limit, and record projection each key separately.
	base := rq([]smartstore.Attr{metadata.AttrMTime}, []float64{0}, []float64{1})
	offline := queryKey(base, smartstore.ModeOffline)
	online := queryKey(base, smartstore.ModeOnline)
	if offline == online {
		t.Fatal("mode not part of key")
	}
	limited := base.WithOptions(smartstore.QueryOptions{Limit: 5})
	if queryKey(limited, smartstore.ModeOffline) == offline {
		t.Fatal("limit not part of key")
	}
	projected := base.WithOptions(smartstore.QueryOptions{IncludeRecords: true})
	if queryKey(projected, smartstore.ModeOffline) == offline {
		t.Fatal("include_records not part of key")
	}
}

// TestServedCachePerShardOverWire drives the per-shard invalidation
// contract end to end: a cached off-line top-k (which targets a strict
// subset of a 4-shard store) must survive wire inserts that land on
// shards outside its target set, and invalidate when one lands inside.
func TestServedCachePerShardOverWire(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 16, Shards: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{}))
	defer ts.Close()

	wq := map[string]any{
		"kind": "topk", "attrs": defaultNames(),
		"point": []float64{40000, 3e7, 6e7}, "k": 5, "mode": "offline",
	}
	// A traced first execution reveals the engine's target shard set.
	body, _ := json.Marshal(wq)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "1")
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var traced QueryResponse
	if err := json.NewDecoder(hres.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if traced.Trace == nil || len(traced.Trace.Shards) == 0 {
		t.Fatalf("traced query carried no shard breakdown: %+v", traced.Trace)
	}
	targets := map[int]bool{}
	for _, sh := range traced.Trace.Shards {
		targets[sh.Shard] = true
	}
	if len(targets) >= 4 {
		t.Fatalf("off-line top-k targeted every shard (%v); the survival case needs a strict subset", targets)
	}

	query := func() QueryResponse {
		var resp QueryResponse
		if code := postJSON(t, ts.URL+"/v1/query", wq, &resp); code != http.StatusOK {
			t.Fatalf("query answered %d", code)
		}
		return resp
	}
	if !query().Cached {
		t.Fatal("second execution not served from cache")
	}

	shardEpochs := func() []uint64 {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(st.Store.PerShard))
		for i, p := range st.Store.PerShard {
			out[i] = p.Epoch
		}
		return out
	}

	prev := shardEpochs()
	survived, invalidated := 0, 0
	for i := 0; i < 40 && (survived == 0 || invalidated == 0); i++ {
		src := set.Files[(i*31)%len(set.Files)]
		ins := map[string]any{"files": []map[string]any{{
			"path": fmt.Sprintf("/cacheprobe/%d.dat", i),
			"attrs": map[string]float64{
				"mtime":       src.Attrs[metadata.AttrMTime],
				"read_bytes":  src.Attrs[metadata.AttrReadBytes],
				"write_bytes": src.Attrs[metadata.AttrWriteBytes],
			},
		}}}
		if code := postJSON(t, ts.URL+"/v1/insert", ins, nil); code != http.StatusOK {
			t.Fatalf("probe insert answered %d", code)
		}
		cur := shardEpochs()
		mutated := -1
		for s := range cur {
			if cur[s] != prev[s] {
				mutated = s
			}
		}
		prev = cur
		if mutated < 0 {
			t.Fatal("insert advanced no shard epoch")
		}
		got := query()
		if targets[mutated] {
			if got.Cached {
				t.Fatalf("write on target shard %d left the entry cached", mutated)
			}
			invalidated++
			// The re-execution just re-primed the cache with fresh epochs.
		} else {
			if !got.Cached {
				t.Fatalf("write on non-target shard %d invalidated the entry", mutated)
			}
			survived++
		}
	}
	if survived == 0 || invalidated == 0 {
		t.Fatalf("probe placement never exercised both cases: survived=%d invalidated=%d", survived, invalidated)
	}
}
