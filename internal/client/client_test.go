package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/server"
)

// newServedStore stands up an httptest daemon over a small store and
// returns a client for it.
func newServedStore(t testing.TB) (*Client, *smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("EECS", 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(store, server.Options{}))
	t.Cleanup(ts.Close)
	return New(ts.URL), store, set
}

func TestClientQueriesMatchLibrary(t *testing.T) {
	cl, store, set := newServedStore(t)
	ctx := context.Background()

	if !cl.Healthy() {
		t.Fatal("daemon not healthy")
	}

	// Point.
	want := set.Files[42]
	pt, err := cl.Query(ctx, smartstore.NewPointQuery(want.Path))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Count == 0 {
		t.Fatalf("point query for %q found nothing", want.Path)
	}

	// Range answers match the library exactly (result ids are
	// deterministic regardless of the simulated home unit).
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}
	lo := []float64{0, 0}
	hi := []float64{5e8, 1e12}
	got, err := cl.Query(ctx, smartstore.NewRangeQuery(attrs, lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := store.Do(ctx, smartstore.NewRangeQuery(attrs, lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != len(direct.IDs) {
		t.Fatalf("remote range %d ids, library %d", len(got.IDs), len(direct.IDs))
	}
	directSet := map[uint64]bool{}
	for _, id := range direct.IDs {
		directSet[id] = true
	}
	for _, id := range got.IDs {
		if !directSet[id] {
			t.Fatalf("remote id %d not in library answer", id)
		}
	}

	// Top-k.
	tk, err := cl.Query(ctx, smartstore.NewTopKQuery(attrs, []float64{want.Attrs[smartstore.AttrMTime],
		want.Attrs[smartstore.AttrReadBytes]}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.IDs) != 5 {
		t.Fatalf("top-5 returned %d ids", len(tk.IDs))
	}
}

func TestClientMutations(t *testing.T) {
	cl, _, set := newServedStore(t)

	f := &smartstore.File{Path: "/client/new.dat", Attrs: set.Files[0].Attrs}
	ins, err := cl.Insert([]*smartstore.File{f})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Inserted != 1 || len(ins.IDs) != 1 || ins.IDs[0] == 0 {
		t.Fatalf("insert response %+v", ins)
	}

	if _, err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	pt, err := cl.Query(context.Background(), smartstore.NewPointQuery("/client/new.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Count != 1 || pt.IDs[0] != ins.IDs[0] {
		t.Fatalf("point after insert+flush: %+v want id %d", pt, ins.IDs[0])
	}

	f.ID = ins.IDs[0]
	f.Attrs[smartstore.AttrSize] = 777
	mod, err := cl.Modify(f)
	if err != nil {
		t.Fatal(err)
	}
	if !mod.Found {
		t.Fatal("modify did not find inserted file")
	}

	del, err := cl.Delete(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Found {
		t.Fatal("delete did not find file")
	}
	del2, err := cl.Delete(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if del2.Found {
		t.Fatal("double delete reported found")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Epoch == 0 {
		t.Fatal("mutations did not advance the epoch")
	}
}

func TestClientCachedBit(t *testing.T) {
	cl, _, _ := newServedStore(t)
	attrs := []smartstore.Attr{smartstore.AttrMTime}
	lo, hi := []float64{0}, []float64{1e9}

	q := smartstore.NewRangeQuery(attrs, lo, hi)
	first, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached bits: first=%v second=%v, want false/true", first.Cached, second.Cached)
	}
}

func TestClientUnifiedQueryAndBatch(t *testing.T) {
	cl, store, set := newServedStore(t)
	ctx := context.Background()
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}
	anchor := set.Files[42]

	// One query with options: records travel inline, the limit is
	// honoured and reported.
	resp, err := cl.Query(ctx, smartstore.NewRangeQuery(attrs,
		[]float64{0, 0}, []float64{1e9, 1e12}).
		WithOptions(smartstore.QueryOptions{Limit: 3, IncludeRecords: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 3 || !resp.Truncated {
		t.Fatalf("limited query: %d ids truncated=%v", len(resp.IDs), resp.Truncated)
	}
	if len(resp.Records) != 3 {
		t.Fatalf("records not inlined: %d", len(resp.Records))
	}
	for i, rec := range resp.Records {
		if rec.ID != resp.IDs[i] {
			t.Fatalf("record[%d] id %d != ids[%d] %d", i, rec.ID, i, resp.IDs[i])
		}
		if _, ok := store.FileByID(rec.ID); !ok {
			t.Fatalf("record id %d unknown to the store", rec.ID)
		}
	}

	// A mixed batch answers in order.
	batch, err := cl.QueryBatch(ctx, []smartstore.Query{
		smartstore.NewPointQuery(anchor.Path),
		smartstore.NewTopKQuery(attrs, []float64{
			anchor.Attrs[smartstore.AttrMTime],
			anchor.Attrs[smartstore.AttrReadBytes]}, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("%d results for 2 queries", len(batch.Results))
	}
	if batch.Results[0].Kind != "point" || batch.Results[1].Kind != "topk" {
		t.Fatalf("batch order not preserved: %q, %q",
			batch.Results[0].Kind, batch.Results[1].Kind)
	}
	if batch.Results[0].Error != "" || batch.Results[1].Error != "" {
		t.Fatalf("batch member failed: %+v", batch.Results)
	}
	if batch.Results[1].Count != 5 {
		t.Fatalf("batch topk answered %d ids", batch.Results[1].Count)
	}

	// A cancelled context aborts the round trip client-side.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cl.Query(cancelled, smartstore.NewPointQuery(anchor.Path)); err == nil {
		t.Fatal("cancelled-context query did not error")
	}
}

func TestClientErrors(t *testing.T) {
	cl, _, _ := newServedStore(t)

	// Server-side validation surfaces as a typed error.
	if _, err := cl.Query(context.Background(), smartstore.NewTopKQuery([]smartstore.Attr{smartstore.AttrMTime}, []float64{0}, 0)); err == nil {
		t.Fatal("k=0 top-k did not error")
	}

	// A dead endpoint errors rather than hanging.
	dead := New("127.0.0.1:1")
	if dead.Healthy() {
		t.Fatal("dead endpoint reported healthy")
	}
	if _, err := dead.Stats(); err == nil {
		t.Fatal("stats against dead endpoint did not error")
	}
}

// flakyHandler answers failures times with failCode, then delegates to
// ok. It counts every request it sees.
type flakyHandler struct {
	mu       sync.Mutex
	failures int
	failCode int
	hits     int
	ok       http.Handler
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.hits++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		w.WriteHeader(f.failCode)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "induced failure"})
		return
	}
	f.ok.ServeHTTP(w, r)
}

func (f *flakyHandler) seen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func newFlakyStore(t testing.TB, failures, failCode int, opts Options) (*Client, *flakyHandler) {
	t.Helper()
	set, err := smartstore.GenerateTrace("EECS", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fh := &flakyHandler{failures: failures, failCode: failCode, ok: server.New(store, server.Options{})}
	ts := httptest.NewServer(fh)
	t.Cleanup(ts.Close)
	return NewWithOptions(ts.URL, opts), fh
}

func TestClientRetriesIdempotentReads(t *testing.T) {
	var retried []string
	cl, fh := newFlakyStore(t, 2, http.StatusServiceUnavailable, Options{
		Retries:      2,
		RetryBackoff: time.Millisecond,
		OnRetry: func(path string, attempt int, err error) {
			retried = append(retried, path)
		},
	})
	resp, err := cl.Query(context.Background(), smartstore.NewPointQuery("/nope"))
	if err != nil {
		t.Fatalf("query did not survive two transient failures: %v", err)
	}
	if resp.Count != 0 {
		t.Fatalf("unexpected hits: %+v", resp)
	}
	if fh.seen() != 3 {
		t.Fatalf("server saw %d attempts, want 3", fh.seen())
	}
	if len(retried) != 2 || retried[0] != "/v1/query" {
		t.Fatalf("OnRetry observed %v", retried)
	}
}

func TestClientRetryBudgetExhausts(t *testing.T) {
	cl, fh := newFlakyStore(t, 3, http.StatusServiceUnavailable, Options{
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	_, err := cl.Query(context.Background(), smartstore.NewPointQuery("/nope"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries surfaced %v, want the 503", err)
	}
	if fh.seen() != 2 {
		t.Fatalf("server saw %d attempts, want 2 (1 + 1 retry)", fh.seen())
	}
}

func TestClientNeverRetriesClientErrors(t *testing.T) {
	cl, fh := newFlakyStore(t, 5, http.StatusBadRequest, Options{
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	_, err := cl.Query(context.Background(), smartstore.NewPointQuery("/nope"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want the 400", err)
	}
	if fh.seen() != 1 {
		t.Fatalf("a 400 was retried: server saw %d attempts", fh.seen())
	}
}

func TestClientNeverRetriesMutations(t *testing.T) {
	cl, fh := newFlakyStore(t, 5, http.StatusServiceUnavailable, Options{
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	_, err := cl.Insert([]*smartstore.File{{Path: "/m.dat"}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want the 503", err)
	}
	if fh.seen() != 1 {
		t.Fatalf("a mutation was retried: server saw %d attempts (a timed-out insert may have landed)", fh.seen())
	}
	if _, err := cl.Delete(7); fh.seen() != 2 {
		t.Fatalf("delete retried: %d attempts total (err %v)", fh.seen(), err)
	}
}
