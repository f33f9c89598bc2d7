package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at every binary decoder the
// server and client expose to the network. The contract under fuzz:
// never panic, never hang, and classify every input as either a valid
// stream or ErrMalformed — the error the HTTP layer maps to 400. A
// successfully decoded request must also re-encode and re-decode
// cleanly (the decoder accepts nothing the encoder cannot express).
func FuzzWireDecode(f *testing.F) {
	// Seed with well-formed streams of each kind so the fuzzer starts
	// inside the format and mutates outward.
	if req, err := EncodeRequest(&QueryRequest{WireQuery: WireQuery{Kind: "point", Path: "/seed"}}); err == nil {
		f.Add(req)
	}
	if req, err := EncodeRequest(&QueryRequest{Queries: []WireQuery{
		{Kind: "range", Attrs: []string{"mtime"}, Lo: []float64{0}, Hi: []float64{1}},
		{Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{2}, K: 3, IncludeDists: true},
	}}); err == nil {
		f.Add(req)
	}
	var single bytes.Buffer
	if err := EncodeResponse(&single, &QueryResponse{
		Kind: "topk", IDs: []uint64{1, 2}, Count: 2, Dists: []float64{0.1, 0.2},
		Records: []FileRecord{{ID: 1, Path: "/r", Attrs: map[string]float64{"mtime": 9}}},
		Report:  Report{Latency: 0.5, Messages: 3},
		Trace:   &TraceWire{TotalMs: 1, Phases: []PhaseWire{{Name: "execute", Ms: 0.9}}},
	}); err == nil {
		f.Add(single.Bytes())
	}
	var batch bytes.Buffer
	if err := EncodeBatchResponse(&batch, &BatchQueryResponse{Results: []QueryResponse{
		{IDs: []uint64{7}, Count: 1, Report: Report{}},
		{Error: "boom", Report: Report{}},
	}}); err == nil {
		f.Add(batch.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			re, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			if _, err := DecodeRequest(re); err != nil {
				t.Fatalf("re-encoded request does not re-decode: %v", err)
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeRequest returned a non-ErrMalformed error: %v", err)
		}
		if _, err := DecodeResponseBytes(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeResponseBytes returned a non-ErrMalformed error: %v", err)
		}
		if _, err := DecodeBatchResponseBytes(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeBatchResponseBytes returned a non-ErrMalformed error: %v", err)
		}
	})
}
