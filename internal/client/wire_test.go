package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	smartstore "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestClientFirstQueryIsBinary: a fresh client's very first /v1/query
// already travels in the binary codec both ways — there is no JSON
// round trip to learn the codec from.
func TestClientFirstQueryIsBinary(t *testing.T) {
	set, err := smartstore.GenerateTrace("EECS", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var contentTypes, accepts []string
	srv := server.New(store, server.Options{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			mu.Lock()
			contentTypes = append(contentTypes, r.Header.Get("Content-Type"))
			accepts = append(accepts, r.Header.Get("Accept"))
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	cl := New(ts.URL)
	resp, err := cl.Query(context.Background(), smartstore.NewPointQuery(set.Files[1].Path))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 {
		t.Fatalf("point query for %q found nothing", set.Files[1].Path)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(contentTypes) != 1 {
		t.Fatalf("%d /v1/query requests for one query", len(contentTypes))
	}
	if !wire.IsBinary(contentTypes[0]) || !wire.IsBinary(accepts[0]) {
		t.Fatalf("first query sent Content-Type %q, Accept %q; want %s both",
			contentTypes[0], accepts[0], wire.ContentType)
	}
}

// TestClientRejectsJSONAnswer: a daemon that ignores the binary Accept
// header and answers 200 in JSON gets an error naming the content type
// it answered in, never a misdecoded answer.
func TestClientRejectsJSONAnswer(t *testing.T) {
	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"point","ids":[5],"count":1,"cached":false,"report":{"latency_sec":0,"messages":1,"hops":0,"units_searched":1}}`))
	}))
	defer jsonOnly.Close()

	cl := New(jsonOnly.URL)
	for i := 0; i < 2; i++ {
		resp, err := cl.Query(context.Background(), smartstore.NewPointQuery("/x"))
		if err == nil {
			t.Fatalf("query %d: a JSON answer decoded as %+v", i, resp)
		}
		if resp != nil {
			t.Fatalf("query %d: error %v came with an answer %+v", i, err, resp)
		}
		if !strings.Contains(err.Error(), "application/json") {
			t.Fatalf("query %d: error %q does not name the content type", i, err)
		}
	}
}
