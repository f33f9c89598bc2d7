package wire_test

import (
	"bytes"
	"fmt"

	"repro/internal/wire"
)

// A range query round-trips through the binary codec: the client
// encodes a request frame, the server streams a framed response, and
// both decode back to the identical Go values the JSON codec produces.
func Example() {
	req := &wire.QueryRequest{WireQuery: wire.WireQuery{
		Kind:  "range",
		Attrs: []string{"mtime", "read_bytes"},
		Lo:    []float64{36000, 3e7},
		Hi:    []float64{59000, 5e7},
		Limit: 3,
	}}
	frame, err := wire.EncodeRequest(req)
	if err != nil {
		panic(err)
	}
	back, err := wire.DecodeRequest(frame)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Kind, back.Attrs, back.Limit)

	resp := &wire.QueryResponse{
		Kind:  "range",
		IDs:   []uint64{11, 42, 97},
		Count: 3,
		Report: wire.Report{
			Latency:  0.0017,
			Messages: 6,
			Hops:     2,
		},
	}
	var buf bytes.Buffer
	if err := wire.EncodeResponse(&buf, resp); err != nil {
		panic(err)
	}
	got, err := wire.DecodeResponse(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(got.IDs, got.Count, got.Report.Messages)
	// Output:
	// range [mtime read_bytes] 3
	// [11 42 97] 3 6
}
