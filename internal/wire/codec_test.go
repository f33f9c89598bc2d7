package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// sampleRequests covers every query shape the endpoint accepts: point,
// range, top-k (with and without options), and batches mixing them.
func sampleRequests() []*QueryRequest {
	return []*QueryRequest{
		{WireQuery: WireQuery{Kind: "point", Path: "/a/b.dat"}},
		{WireQuery: WireQuery{Kind: "point", Path: "/a/b.dat", Mode: "online", IncludeRecords: true}},
		{WireQuery: WireQuery{
			Kind: "range", Attrs: []string{"mtime", "read_bytes"},
			Lo: []float64{0, -3.5}, Hi: []float64{100, math.MaxFloat64}, Limit: 7,
		}},
		{WireQuery: WireQuery{
			Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{42.25},
			K: 9, IncludeDists: true, IncludeRecords: true, Mode: "offline",
		}},
		{Queries: []WireQuery{
			{Kind: "point", Path: "/x"},
			{Kind: "range", Attrs: []string{"mtime"}, Lo: []float64{1}, Hi: []float64{2}},
			{Kind: "topk", Attrs: []string{"read_bytes"}, Point: []float64{0}, K: 3},
		}},
	}
}

// sampleResponses covers the answer shapes: empty, ids-only, nil ids
// (error items), dists, records (with and without attrs), truncation,
// partial, cached, traces, errors.
func sampleResponses() []*QueryResponse {
	return []*QueryResponse{
		{Kind: "point", IDs: []uint64{}, Count: 0, Report: Report{}},
		{Kind: "range", IDs: []uint64{1, 2, 3}, Count: 3, Cached: true,
			Report: Report{Latency: 0.25, Messages: 12, Hops: 3, UnitsSearched: 4}},
		{Kind: "topk", IDs: []uint64{9, 8}, Count: 2,
			Dists:  []float64{0.125, math.MaxFloat64},
			Report: Report{Hops: 2, UnitsSearched: 5}},
		{Kind: "range", IDs: []uint64{5}, Count: 900, Truncated: true, Partial: true,
			Records: []FileRecord{
				{ID: 5, Path: "/r/5.dat", Attrs: map[string]float64{"mtime": 1, "read_bytes": -2.5}},
			},
			Report: Report{Latency: 1}},
		{IDs: nil, Count: 0, Error: "backend exploded", Report: Report{}},
		{Kind: "point", IDs: []uint64{7}, Count: 1,
			Trace: &TraceWire{
				TotalMs: 1.5,
				Phases:  []PhaseWire{{Name: "execute", Ms: 1.25}},
				Shards:  []ShardWire{{Shard: 0, Ms: 1.2}, {Shard: 1, Pruned: true}},
				Backends: []BackendTraceWire{{Backend: "b0", Ms: 1.0,
					Trace: &TraceWire{TotalMs: 0.9, Phases: []PhaseWire{{Name: "decode", Ms: 0.1}}}}},
			},
			Report: Report{}},
	}
}

// viaJSON round-trips v through encoding/json into out.
func viaJSON(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			buf, err := EncodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRequest(buf)
			if err != nil {
				t.Fatal(err)
			}
			// The JSON round trip defines the reference value: both
			// codecs must land on the same Go value.
			var want QueryRequest
			viaJSON(t, req, &want)
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("binary round trip diverges from JSON:\n  json:   %+v\n  binary: %+v", &want, got)
			}
		})
	}
}

// TestResponseEquivalence is the codec-equivalence contract: a response
// decoded from the binary stream is exactly the value the JSON round
// trip produces — nil-vs-empty, float bits, attrs maps and traces
// included.
func TestResponseEquivalence(t *testing.T) {
	for i, resp := range sampleResponses() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeResponse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var want QueryResponse
			viaJSON(t, resp, &want)
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("binary round trip diverges from JSON:\n  json:   %+v\n  binary: %+v", &want, got)
			}
		})
	}
}

func TestBatchResponseEquivalence(t *testing.T) {
	var batch BatchQueryResponse
	for _, r := range sampleResponses() {
		batch.Results = append(batch.Results, *r)
	}
	var buf bytes.Buffer
	if err := EncodeBatchResponse(&buf, &batch); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResponseBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var want BatchQueryResponse
	viaJSON(t, &batch, &want)
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("batch binary round trip diverges from JSON")
	}
}

// TestChunkedIDs pushes a response across several id and record chunks
// and checks it reassembles losslessly with every Write bounded.
func TestChunkedIDs(t *testing.T) {
	const n = 100_000
	resp := &QueryResponse{Kind: "range", Count: n}
	resp.IDs = make([]uint64, n)
	for i := range resp.IDs {
		resp.IDs[i] = uint64(i) * 3
	}
	var w boundedWriter
	if err := EncodeResponse(&w, resp); err != nil {
		t.Fatal(err)
	}
	if w.max > MaxEncodedWrite {
		t.Fatalf("a single Write was %d bytes, above the %d bound", w.max, MaxEncodedWrite)
	}
	if w.writes < n*8/MaxFrame {
		t.Fatalf("only %d writes for %d ids — not actually chunked", w.writes, n)
	}
	got, err := DecodeResponse(bytes.NewReader(w.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, resp.IDs) || got.Count != n {
		t.Fatal("chunked ids did not reassemble")
	}
}

// boundedWriter records the largest single Write.
type boundedWriter struct {
	buf    bytes.Buffer
	max    int
	writes int
}

func (w *boundedWriter) Write(p []byte) (int, error) {
	if len(p) > w.max {
		w.max = len(p)
	}
	w.writes++
	return w.buf.Write(p)
}

func TestNegotiation(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"*/*", false},
		{ContentType, true},
		{"application/json, " + ContentType, true},
		{ContentType + ";q=0.9", true},
	} {
		if got := Accepts(tc.accept); got != tc.want {
			t.Errorf("Accepts(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
	if !IsBinary(ContentType + "; charset=x") {
		t.Error("IsBinary rejects parameterized content type")
	}
	if IsBinary("application/json") {
		t.Error("IsBinary accepts JSON")
	}
}

// TestMalformedInputs: hand-built corruption answers ErrMalformed, not
// a panic and not success.
func TestMalformedInputs(t *testing.T) {
	good, err := EncodeRequest(&QueryRequest{WireQuery: WireQuery{Kind: "point", Path: "/x"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      good[:5],
		"truncated payload": good[:len(good)-2],
		"bad crc": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xFF
			return b
		}(),
		"huge length": {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},
		"trailing garbage": func() []byte {
			return append(append([]byte(nil), good...), good...)
		}(),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeRequest(body); !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeRequest(%s) = %v, want ErrMalformed", name, err)
			}
		})
	}

	var buf bytes.Buffer
	if err := EncodeResponse(&buf, &QueryResponse{IDs: []uint64{1}, Count: 1}); err != nil {
		t.Fatal(err)
	}
	resp := buf.Bytes()
	if _, err := DecodeResponseBytes(resp[:len(resp)-3]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated response stream: %v, want ErrMalformed", err)
	}
	// A request frame where a response stream is expected.
	if _, err := DecodeResponseBytes(good); !errors.Is(err, ErrMalformed) {
		t.Fatalf("request frame as response: %v, want ErrMalformed", err)
	}
	if _, err := DecodeBatchResponseBytes(resp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("single-response stream as batch: %v, want ErrMalformed", err)
	}
}

// TestReportEncodingPinned: the report on the wire is the engine's own
// struct, so its JSON names and binary layout are pinned (first
// recorded at commit e401604; the binary frames were re-recorded once
// when the two always-zero version-chain fields left the report, which
// left the JSON bytes as they were).
func TestReportEncodingPinned(t *testing.T) {
	for _, tc := range []struct {
		resp     QueryResponse
		json     string
		binaryHx string
	}{
		{
			QueryResponse{Kind: "range", IDs: []uint64{1, 2, 3}, Count: 3,
				Report: Report{Latency: 0.25, Messages: 12, Hops: 3, UnitsSearched: 4}},
			`{"kind":"range","ids":[1,2,3],"count":3,"cached":false,"report":{"latency_sec":0.25,"messages":12,"hops":3,"units_searched":4}}`,
			"0b000000cb3cde0510010500000072616e67651e000000d258c2c01100030000000100000000000000020000000000000003000000000000002b0000006e6f93d21300000300000000000000000000000000d03f0c0000000000000003000000000000000400000000000000",
		},
		{
			QueryResponse{Kind: "topk", IDs: []uint64{9, 8}, Count: 2, Dists: []float64{0.125, 2},
				Report: Report{Latency: 1.5, Messages: 7, Hops: 1, UnitsSearched: 2}},
			`{"kind":"topk","ids":[9,8],"count":2,"cached":false,"dists":[0.125,2],"report":{"latency_sec":1.5,"messages":7,"hops":1,"units_searched":2}}`,
			"0a0000004f741878100104000000746f706b26000000afb42aec11010200000009000000000000000800000000000000000000000000c03f00000000000000402b000000119dc8991300000200000000000000000000000000f83f070000000000000001000000000000000200000000000000",
		},
	} {
		j, err := json.Marshal(&tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(j) != tc.json {
			t.Errorf("JSON encoding moved:\n got %s\nwant %s", j, tc.json)
		}
		var b bytes.Buffer
		if err := EncodeResponse(&b, &tc.resp); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b.Bytes()); got != tc.binaryHx {
			t.Errorf("binary encoding moved:\n got %s\nwant %s", got, tc.binaryHx)
		}
	}
}
