package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

// postGateWire posts one /v1/query to the gateway in the chosen
// codecs and returns status, content type and raw body.
func postGateWire(t *testing.T, url string, req *server.QueryRequest, reqBinary, respBinary bool) (int, string, []byte) {
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

// TestGatewayCodecEquivalence: a gateway-merged answer — fanned out
// across backends over the binary codec — decodes to the identical
// value through every request/response codec combination.
func TestGatewayCodecEquivalence(t *testing.T) {
	fed := buildFederation(t, 600, 3)
	f := fed.files[11]
	shapes := map[string]*server.QueryRequest{
		"point": {WireQuery: server.WireQuery{Kind: "point", Path: f.Path}},
		"range": {WireQuery: server.WireQuery{
			Kind:  "range",
			Attrs: []string{"mtime", "read_bytes", "write_bytes"},
			Lo:    []float64{0, 0, 0}, Hi: []float64{1e9, 1e12, 1e12}, Limit: 20}},
		"topk": {WireQuery: server.WireQuery{
			Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{f.Attrs[0]},
			K: 9, IncludeDists: true, IncludeRecords: true}},
		"batch": {Queries: []server.WireQuery{
			{Kind: "point", Path: f.Path},
			{Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{0}, K: 4},
		}},
	}
	scrub := func(v any) {
		zero := func(r *server.QueryResponse) {
			r.Report.Latency = 0
			r.Report.VersionLatency = 0
		}
		switch r := v.(type) {
		case *server.QueryResponse:
			zero(r)
		case *server.BatchQueryResponse:
			for i := range r.Results {
				zero(&r.Results[i])
			}
		}
	}
	for name, req := range shapes {
		t.Run(name, func(t *testing.T) {
			batch := len(req.Queries) > 0
			var ref any
			for i, combo := range []struct{ reqBin, respBin bool }{
				{false, false}, {true, false}, {false, true}, {true, true},
			} {
				code, ct, raw := postGateWire(t, fed.gateURL, req, combo.reqBin, combo.respBin)
				if code != 200 {
					t.Fatalf("combo %d: status %d: %s", i, code, raw)
				}
				if combo.respBin != wire.IsBinary(ct) {
					t.Fatalf("combo %d: negotiated %q", i, ct)
				}
				var got any
				if wire.IsBinary(ct) {
					var err error
					if batch {
						got, err = wire.DecodeBatchResponseBytes(raw)
					} else {
						got, err = wire.DecodeResponseBytes(raw)
					}
					if err != nil {
						t.Fatalf("combo %d: binary decode: %v", i, err)
					}
				} else if batch {
					out := &server.BatchQueryResponse{}
					if err := json.Unmarshal(raw, out); err != nil {
						t.Fatal(err)
					}
					got = out
				} else {
					out := &server.QueryResponse{}
					if err := json.Unmarshal(raw, out); err != nil {
						t.Fatal(err)
					}
					got = out
				}
				scrub(got)
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("combo %d diverges from JSON/JSON:\n  ref: %+v\n  got: %+v", i, ref, got)
				}
			}
		})
	}
	// The gateway's backend clients negotiate the binary codec on
	// their own — the fan-out above must have latched it.
	for i, b := range fed.gw.backends {
		if !b.client().BinaryNegotiated() {
			t.Fatalf("backend %d fan-out still on JSON", i)
		}
	}
}
