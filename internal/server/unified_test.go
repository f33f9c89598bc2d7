package server

import (
	"net/http"
	"testing"

	smartstore "repro"
	"repro/internal/metadata"
)

// TestUnifiedQueryRecordsInline covers the projection acceptance
// criterion: one POST /v1/query with include_records answers with full
// file records inline, no follow-up per-id lookups needed.
func TestUnifiedQueryRecordsInline(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})
	want := set.Files[21]

	var resp QueryResponse
	req := QueryRequest{WireQuery: WireQuery{Kind: "point", Path: want.Path, IncludeRecords: true}}
	if code := postJSON(t, ts.URL+"/v1/query", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Kind != "point" || resp.Count == 0 {
		t.Fatalf("response %+v", resp)
	}
	if len(resp.Records) != len(resp.IDs) {
		t.Fatalf("%d records for %d ids", len(resp.Records), len(resp.IDs))
	}
	for i, rec := range resp.Records {
		if rec.ID != resp.IDs[i] {
			t.Fatalf("record[%d] id %d != ids[%d] %d", i, rec.ID, i, resp.IDs[i])
		}
		if rec.Path != want.Path {
			t.Fatalf("record path %q want %q", rec.Path, want.Path)
		}
		if len(rec.Attrs) != int(metadata.NumAttrs) {
			t.Fatalf("record carries %d attrs, want %d", len(rec.Attrs), metadata.NumAttrs)
		}
	}

	// Range with records and a limit: records follow the truncated ids.
	var rr QueryResponse
	rangeReq := QueryRequest{WireQuery: WireQuery{
		Kind: "range", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12},
		Limit: 5, IncludeRecords: true,
	}}
	if code := postJSON(t, ts.URL+"/v1/query", rangeReq, &rr); code != 200 {
		t.Fatalf("range status %d", code)
	}
	if len(rr.IDs) != 5 || !rr.Truncated {
		t.Fatalf("limited range: %d ids truncated=%v", len(rr.IDs), rr.Truncated)
	}
	if len(rr.Records) != 5 {
		t.Fatalf("limited range projected %d records", len(rr.Records))
	}
}

// TestUnifiedBatchOneAdmissionTicket covers the batch acceptance
// criterion: a mixed point/range/topk batch executes concurrently under
// the single admission ticket its request holds — with one worker and
// no queue, per-member admission would reject or deadlock.
func TestUnifiedBatchOneAdmissionTicket(t *testing.T) {
	ts, _, set := newTestServer(t, Options{Workers: 1, MaxQueue: 0, CacheEntries: -1})
	anchor := set.Files[5]

	req := QueryRequest{Queries: []WireQuery{
		{Kind: "point", Path: anchor.Path},
		{Kind: "range", Attrs: defaultNames(),
			Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}},
		{Kind: "topk", Attrs: defaultNames(), K: 4,
			Point: []float64{
				anchor.Attrs[metadata.AttrMTime],
				anchor.Attrs[metadata.AttrReadBytes],
				anchor.Attrs[metadata.AttrWriteBytes],
			}},
		{Kind: "point", Path: anchor.Path, IncludeRecords: true},
	}}
	var resp BatchQueryResponse
	if code := postJSON(t, ts.URL+"/v1/query", req, &resp); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results for 4 queries", len(resp.Results))
	}
	// Results arrive in request order with no per-member failures.
	wantKinds := []string{"point", "range", "topk", "point"}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("results[%d] failed: %s", i, r.Error)
		}
		if r.Kind != wantKinds[i] {
			t.Fatalf("results[%d] kind %q want %q", i, r.Kind, wantKinds[i])
		}
	}
	if resp.Results[2].Count != 4 {
		t.Fatalf("topk member answered %d ids, want 4", resp.Results[2].Count)
	}
	if len(resp.Results[3].Records) != len(resp.Results[3].IDs) {
		t.Fatal("per-member include_records not honoured in batch")
	}

	// A batch with any malformed member is rejected wholesale.
	bad := QueryRequest{Queries: []WireQuery{
		{Kind: "point", Path: anchor.Path},
		{Kind: "topk", Attrs: defaultNames(), Point: []float64{1, 2, 3}, K: 0},
	}}
	if code := postJSON(t, ts.URL+"/v1/query", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed batch member: status %d want 400", code)
	}
}

// TestWireTopKValidation is the regression test for the daemon panic
// path: k = 0 or negative must be rejected at the boundary with 400,
// never reaching the library's panicking constructor.
func TestWireTopKValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	for _, k := range []int{0, -3} {
		uni := QueryRequest{WireQuery: WireQuery{
			Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{0}, K: k}}
		if code := postJSON(t, ts.URL+"/v1/query", uni, nil); code != http.StatusBadRequest {
			t.Errorf("unified topk k=%d: status %d want 400", k, code)
		}
	}
	// Negative limit and unknown mode are boundary-rejected too.
	if code := postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: WireQuery{
		Kind: "point", Path: "/x", Limit: -1}}, nil); code != http.StatusBadRequest {
		t.Error("negative limit accepted")
	}
	if code := postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: WireQuery{
		Kind: "point", Path: "/x", Mode: "sideways"}}, nil); code != http.StatusBadRequest {
		t.Error("unknown mode accepted")
	}
	if code := postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: WireQuery{
		Kind: "warp", Path: "/x"}}, nil); code != http.StatusBadRequest {
		t.Error("unknown kind accepted")
	}
}

// TestCacheOptionAwareness covers the cache-correctness satellite: the
// same dimensions with a different mode, limit, or projection must not
// collide on one entry, and an epoch bump invalidates batch members
// like singles.
func TestCacheOptionAwareness(t *testing.T) {
	ts, store, set := newTestServer(t, Options{CacheEntries: 64})
	dims := WireQuery{Kind: "range", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}}

	// Warm the limited variant first: a colliding key would serve the
	// 5-id truncated entry to the unlimited query.
	limited := dims
	limited.Limit = 5
	var lim QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: limited}, &lim)
	if len(lim.IDs) != 5 || !lim.Truncated {
		t.Fatalf("limited warmup: %d ids truncated=%v", len(lim.IDs), lim.Truncated)
	}
	var full QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: dims}, &full)
	if full.Cached {
		t.Fatal("unlimited query collided with limited cache entry")
	}
	if len(full.IDs) <= 5 {
		t.Fatalf("unlimited query answered %d ids", len(full.IDs))
	}

	// Projection variant must not serve the record-less entry. (A limit
	// keeps the projected answer under the record-caching bound.)
	projected := dims
	projected.IncludeRecords = true
	projected.Limit = 50
	var proj QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: projected}, &proj)
	if proj.Cached {
		t.Fatal("projected query collided with id-only cache entry")
	}
	if len(proj.Records) != len(proj.IDs) {
		t.Fatalf("projection lost: %d records for %d ids", len(proj.Records), len(proj.IDs))
	}

	// Mode variant keys separately from the store-default entry.
	online := dims
	online.Mode = "online"
	var on QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: online}, &on)
	if on.Cached {
		t.Fatal("online query collided with default-mode cache entry")
	}
	// An explicit mode equal to the store default shares its entry.
	explicitDefault := dims
	explicitDefault.Mode = "offline"
	if store.Mode() != smartstore.OffLine {
		t.Fatal("test assumes an off-line default store")
	}
	var expl QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{WireQuery: explicitDefault}, &expl)
	if !expl.Cached {
		t.Fatal("explicit store-default mode missed the default entry")
	}

	// Epoch invalidation holds across batch queries: a mutation between
	// two identical batches makes every member re-execute.
	batch := QueryRequest{Queries: []WireQuery{dims, projected}}
	var warm BatchQueryResponse
	postJSON(t, ts.URL+"/v1/query", batch, &warm)
	for i, r := range warm.Results {
		if !r.Cached {
			t.Fatalf("batch warmup member %d not cached", i)
		}
	}
	rec := RecordFromFile(set.Files[0])
	rec.ID = 0
	rec.Path = "/cache/epoch-batch.dat"
	var ins InsertResponse
	postJSON(t, ts.URL+"/v1/insert", InsertRequest{Files: []FileRecord{rec}}, &ins)

	var cold BatchQueryResponse
	postJSON(t, ts.URL+"/v1/query", batch, &cold)
	for i, r := range cold.Results {
		if r.Cached {
			t.Fatalf("batch member %d served stale cache after epoch bump", i)
		}
	}
}
