package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	smartstore "repro"
	"repro/internal/wire"
)

// postWire posts one /v1/query request in the chosen codecs and
// returns the response body and status. reqBinary picks the request
// encoding; respBinary sets the Accept header.
func postWire(t *testing.T, url string, req *QueryRequest, reqBinary, respBinary bool) (int, string, []byte) {
	t.Helper()
	var body []byte
	var err error
	contentType := "application/json"
	if reqBinary {
		body, err = wire.EncodeRequest(req)
		contentType = wire.ContentType
	} else {
		body, err = json.Marshal(req)
	}
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", contentType)
	if respBinary {
		hreq.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), raw
}

// decodeWire decodes a /v1/query response body by its content type.
func decodeWire(t *testing.T, contentType string, raw []byte, batch bool) any {
	t.Helper()
	if wire.IsBinary(contentType) {
		if batch {
			out, err := wire.DecodeBatchResponseBytes(raw)
			if err != nil {
				t.Fatalf("binary batch decode: %v", err)
			}
			return out
		}
		out, err := wire.DecodeResponseBytes(raw)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		return out
	}
	if batch {
		out := &BatchQueryResponse{}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("json batch decode: %v", err)
		}
		return out
	}
	out := &QueryResponse{}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

// TestCodecEquivalenceOverHTTP drives every query shape through all
// four request/response codec combinations and demands the identical
// decoded value: the binary codec is a transport, not a dialect. It is
// also the codec's cost gate, and a deterministic one: on a 2000-file
// store a binary answer body that carries records or distances is no
// larger than the JSON body carrying the same answer. An id travels as
// 8 fixed bytes, which decimal text undercuts while ids stay below
// 10^7, so an id-only answer is held to that fixed cost instead.
func TestCodecEquivalenceOverHTTP(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{CacheEntries: -1}))
	t.Cleanup(ts.Close)
	f := set.Files[3]
	shapes := map[string]*QueryRequest{
		"point": {WireQuery: WireQuery{Kind: "point", Path: f.Path}},
		"point-records": {WireQuery: WireQuery{
			Kind: "point", Path: f.Path, IncludeRecords: true}},
		"range": {WireQuery: WireQuery{
			Kind: "range", Attrs: defaultNames(),
			Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}}},
		"range-records": {WireQuery: WireQuery{
			Kind: "range", Attrs: defaultNames(),
			Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}, IncludeRecords: true}},
		"range-limit": {WireQuery: WireQuery{
			Kind: "range", Attrs: defaultNames(),
			Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}, Limit: 5}},
		"range-empty": {WireQuery: WireQuery{
			Kind: "range", Attrs: []string{"mtime"}, Lo: []float64{-2}, Hi: []float64{-1}}},
		"topk": {WireQuery: WireQuery{
			Kind: "topk", Attrs: []string{"mtime", "read_bytes"},
			Point: []float64{f.Attrs[0], f.Attrs[1]}, K: 7, IncludeDists: true}},
		"topk-records": {WireQuery: WireQuery{
			Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{f.Attrs[0]},
			K: 3, IncludeRecords: true}},
		"batch": {Queries: []WireQuery{
			{Kind: "point", Path: f.Path},
			{Kind: "range", Attrs: []string{"mtime"}, Lo: []float64{0}, Hi: []float64{1e9}, Limit: 4},
			{Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{0}, K: 2, IncludeDists: true},
		}},
	}
	// Each combination re-executes the query (the cache is off), and
	// the virtual-time latency sum is not bit-stable across executions
	// — zero the float accounting before comparing; everything else
	// (ids, dists, records, counts, flags) must match exactly.
	scrub := func(v any) {
		zero := func(r *QueryResponse) {
			r.Report.Latency = 0
			r.Report.VersionLatency = 0
		}
		switch r := v.(type) {
		case *QueryResponse:
			zero(r)
		case *BatchQueryResponse:
			for i := range r.Results {
				zero(&r.Results[i])
			}
		}
	}
	for name, req := range shapes {
		t.Run(name, func(t *testing.T) {
			batch := len(req.Queries) > 0
			var ref any
			var limit int
			for i, combo := range []struct{ reqBin, respBin bool }{
				{false, false}, {true, false}, {false, true}, {true, true},
			} {
				code, ct, raw := postWire(t, ts.URL, req, combo.reqBin, combo.respBin)
				if code != 200 {
					t.Fatalf("combo %d: status %d: %s", i, code, raw)
				}
				if combo.respBin && !wire.IsBinary(ct) {
					t.Fatalf("combo %d: asked for binary, got %q", i, ct)
				}
				got := decodeWire(t, ct, raw, batch)
				scrub(got)
				if i == 0 {
					ref, limit = got, len(raw)
					if r, ok := got.(*QueryResponse); ok && !req.IncludeRecords && !req.IncludeDists {
						limit = max(limit, 8*r.Count+128)
					}
					continue
				}
				if combo.respBin && len(raw) > limit {
					t.Errorf("combo %d: binary body is %d bytes, limit %d", i, len(raw), limit)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("combo %d diverges from JSON/JSON:\n  ref: %+v\n  got: %+v", i, ref, got)
				}
			}
		})
	}
}

// TestCrossCodecCacheHit: the serving cache stores codec-agnostic
// results, so an entry populated through one codec serves a hit
// through the other — byte-identical to a fresh answer modulo the
// Cached flag.
func TestCrossCodecCacheHit(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{CacheEntries: 64})
	req := &QueryRequest{WireQuery: WireQuery{
		Kind: "range", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}, Limit: 9}}

	// Populate through JSON, hit through binary.
	code, ct, raw := postWire(t, ts.URL, req, false, false)
	if code != 200 {
		t.Fatalf("populate: status %d", code)
	}
	cold := decodeWire(t, ct, raw, false).(*QueryResponse)
	if cold.Cached {
		t.Fatal("first query already cached")
	}
	code, ct, raw = postWire(t, ts.URL, req, true, true)
	if code != 200 {
		t.Fatalf("binary hit: status %d", code)
	}
	hit := decodeWire(t, ct, raw, false).(*QueryResponse)
	if !hit.Cached {
		t.Fatal("binary request missed a JSON-populated cache entry")
	}
	hit.Cached = false
	if !reflect.DeepEqual(hit, cold) {
		t.Fatalf("cache hit diverges across codecs:\n  cold: %+v\n  hit:  %+v", cold, hit)
	}

	// And the reverse: a binary-populated entry serves a JSON hit.
	req.Limit = 10 // fresh cache key
	if code, _, _ = postWire(t, ts.URL, req, true, true); code != 200 {
		t.Fatalf("binary populate: status %d", code)
	}
	code, ct, raw = postWire(t, ts.URL, req, false, false)
	if code != 200 {
		t.Fatalf("json hit: status %d", code)
	}
	if out := decodeWire(t, ct, raw, false).(*QueryResponse); !out.Cached {
		t.Fatal("JSON request missed a binary-populated cache entry")
	}
}

// TestMalformedBinaryRequestIs400: corrupt binary bodies answer 400
// with a JSON error — never a panic, hang, or 5xx.
func TestMalformedBinaryRequestIs400(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	good, err := wire.EncodeRequest(&QueryRequest{WireQuery: WireQuery{Kind: "point", Path: "/x"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{},
		good[:6],
		append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, good[4:]...),
		func() []byte { b := append([]byte(nil), good...); b[9] ^= 0xA5; return b }(),
	}
	for i, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("case %d: 400 body is not a JSON error: %v", i, err)
		}
		resp.Body.Close()
	}
}

// TestBinaryResponseTraced: the trace rides the binary trailer when
// the trace header is set.
func TestBinaryResponseTraced(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})
	body, err := wire.EncodeRequest(&QueryRequest{WireQuery: WireQuery{Kind: "point", Path: set.Files[0].Path}})
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", wire.ContentType)
	hreq.Header.Set("Accept", wire.ContentType)
	hreq.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := wire.DecodeResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || len(out.Trace.Phases) == 0 {
		t.Fatal("binary response dropped the trace")
	}
	found := false
	for _, p := range out.Trace.Phases {
		if p.Name == "encode" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace phases %v missing encode", out.Trace.Phases)
	}
}

// TestBinaryStreamBoundedWrites: a large range answered over the
// binary codec streams in frames no larger than MaxEncodedWrite — the
// server never buffers the whole response.
func TestBinaryStreamBoundedWrites(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{CacheEntries: -1})
	req := &QueryRequest{WireQuery: WireQuery{
		Kind: "range", Attrs: defaultNames(),
		Lo: []float64{0, 0, 0}, Hi: []float64{1e12, 1e15, 1e15}, IncludeRecords: true}}
	code, ct, raw := postWire(t, ts.URL, req, true, true)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !wire.IsBinary(ct) {
		t.Fatalf("content type %q", ct)
	}
	out, err := wire.DecodeResponseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 || len(out.Records) != len(out.IDs) {
		t.Fatalf("count %d, %d records for %d ids", out.Count, len(out.Records), len(out.IDs))
	}
	// The frame bound is structural: scan the raw stream and check
	// every frame observes MaxFrame.
	for off := 0; off < len(raw); {
		if len(raw)-off < 8 {
			t.Fatal("torn frame header")
		}
		n := int(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		if n > wire.MaxFrame {
			t.Fatalf("frame of %d bytes exceeds MaxFrame", n)
		}
		off += 8 + n
	}
}
