package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	smartstore "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// newServedStoreWire is newServedStore with a chosen wire mode, also
// returning the daemon URL for extra clients.
func newServedStoreWire(t testing.TB, mode WireMode) (*Client, string, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("EECS", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(store, server.Options{}))
	t.Cleanup(ts.Close)
	return NewWithOptions(ts.URL, Options{Wire: mode}), ts.URL, set
}

// postBatch posts qs to the daemon at url as one /v1/query batch, in
// the binary codec both ways or in JSON, and decodes the answer.
func postBatch(t *testing.T, url string, qs []smartstore.Query, binary bool) *server.BatchQueryResponse {
	t.Helper()
	req := server.QueryRequest{Queries: make([]server.WireQuery, len(qs))}
	for i, q := range qs {
		req.Queries[i] = server.QueryToWire(q)
	}
	body, err := json.Marshal(req)
	contentType := "application/json"
	if binary {
		body, err = wire.EncodeRequest(&req)
		contentType = wire.ContentType
	}
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", contentType)
	hreq.Header.Set("Accept", contentType)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, %v: %s", resp.StatusCode, err, raw)
	}
	out := &server.BatchQueryResponse{}
	if binary {
		out, err = wire.DecodeBatchResponseBytes(raw)
	} else {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClientWireModes: the three modes return identical answers; auto
// latches binary after the first response, json never negotiates it.
func TestClientWireModes(t *testing.T) {
	clAuto, url, set := newServedStoreWire(t, WireAuto)
	clJSON := NewWithOptions(url, Options{Wire: WireJSON})
	clBin := NewWithOptions(url, Options{Wire: WireBinary})

	if clAuto.BinaryNegotiated() {
		t.Fatal("auto client claims binary before any response")
	}
	attrs := []smartstore.Attr{smartstore.AttrMTime}
	q := smartstore.NewRangeQuery(attrs, []float64{0}, []float64{1e9})
	q.Options.Limit = 25

	respAuto, err := clAuto.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !clAuto.BinaryNegotiated() {
		t.Fatal("auto client did not latch binary against a binary-capable daemon")
	}
	respJSON, err := clJSON.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if clJSON.BinaryNegotiated() {
		t.Fatal("forced-JSON client negotiated binary")
	}
	respBin, err := clBin.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The cache served the repeat queries, so the reports replay and
	// the three answers must be fully identical — Cached excepted on
	// the first.
	respAuto.Cached, respJSON.Cached, respBin.Cached = false, false, false
	if !reflect.DeepEqual(respAuto, respJSON) || !reflect.DeepEqual(respJSON, respBin) {
		t.Fatalf("wire modes disagree:\n  auto: %+v\n  json: %+v\n  bin:  %+v",
			respAuto, respJSON, respBin)
	}

	// Batch through the binary codec matches JSON too.
	qs := []smartstore.Query{
		smartstore.NewPointQuery(set.Files[1].Path),
		q,
	}
	bAuto := postBatch(t, url, qs, true)
	bJSON := postBatch(t, url, qs, false)
	for i := range bAuto.Results {
		bAuto.Results[i].Cached = false
		bJSON.Results[i].Cached = false
	}
	if !reflect.DeepEqual(bAuto, bJSON) {
		t.Fatalf("batch answers disagree across codecs")
	}
}

// TestClientFallsBackToJSON: against a daemon that ignores the Accept
// header (a pre-binary smartstored), the auto client keeps speaking
// JSON and never latches binary.
func TestClientFallsBackToJSON(t *testing.T) {
	var sawBinaryBody atomic.Bool
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if wire.IsBinary(r.Header.Get("Content-Type")) {
			sawBinaryBody.Store(true)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"point","ids":[5],"count":1,"cached":false,"report":{"latency_sec":0,"messages":1,"hops":0,"units_searched":1}}`))
	}))
	defer legacy.Close()

	cl := New(legacy.URL)
	for i := 0; i < 3; i++ {
		resp, err := cl.Query(context.Background(), smartstore.NewPointQuery("/x"))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.IDs) != 1 || resp.IDs[0] != 5 {
			t.Fatalf("bad decode via fallback: %+v", resp)
		}
	}
	if cl.BinaryNegotiated() {
		t.Fatal("client latched binary against a JSON-only daemon")
	}
	if sawBinaryBody.Load() {
		t.Fatal("auto client sent a binary body before the daemon ever answered binary")
	}
}
