package gateway

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	smartstore "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// gatewayFanInParityHash is the SHA-256 of everything the gateway's
// routing, top-k fold and report composition decide on the fixed stream
// below — member target sets, merged ids in order, distance bits,
// composed report bits and insert placements. It was recorded by
// running this test against the commit before the engine and the
// gateway shared one fan-in (e401604); the only edit needed there is
// hashReport reading the wire report's two latency fields under the
// Sec-suffixed names they had then. A mismatch means a target
// selection, a tie-break or an arithmetic order moved.
const gatewayFanInParityHash = "7e82d5779fd85f30a6579ebf021e5a50167f70c6b223111c9f461f4585fb8919"

func hashReport(h hash.Hash, r server.Report) {
	fmt.Fprintf(h, "rep %x %d %d %d %d %x\n", math.Float64bits(r.Latency), r.Messages, r.Hops,
		r.UnitsSearched, r.VersionChecked, math.Float64bits(r.VersionLatency))
}

// TestGatewayFanInParity replays a fixed 200-query stream (plus ten
// routed inserts) through a seeded 3-member gateway and compares the
// digest of every answer with the one the parent commit produced. Each
// query runs traced so the member rows name the fan-out's target set.
func TestGatewayFanInParity(t *testing.T) {
	fed := buildFederation(t, 900, 3)
	attrs := queryAttrs()
	h := sha256.New()
	for i := 0; i < 200; i++ {
		f := fed.files[(i*53)%len(fed.files)]
		point := []float64{f.Attrs[attrs[0]] * 1.01, f.Attrs[attrs[1]] * 0.99, f.Attrs[attrs[2]]}
		var q smartstore.Query
		switch i % 5 {
		case 0, 1: // off-line top-k: nearest-centroid routing under the 1+n/4 cap
			q = smartstore.NewTopKQuery(attrs, point, 3+i%9).
				WithOptions(smartstore.QueryOptions{Mode: smartstore.ModeOffline, IncludeDists: true})
		case 2: // on-line top-k over every member, limit cutting the merged answer
			q = smartstore.NewTopKQuery(attrs, point, 8).
				WithOptions(smartstore.QueryOptions{IncludeDists: true, Limit: 5})
		case 3:
			w := rangeWindows()[i%len(rangeWindows())]
			q = smartstore.NewRangeQuery(attrs, w[0], w[1])
		case 4:
			// An off-line top-k over an attribute outside the placement
			// predicate: no routing signal, every member is asked.
			q = smartstore.NewTopKQuery([]smartstore.Attr{smartstore.AttrSize}, []float64{f.Attrs[smartstore.AttrSize]}, 4).
				WithOptions(smartstore.QueryOptions{Mode: smartstore.ModeOffline, IncludeDists: true})
		}
		ctx, _ := obs.WithTrace(context.Background())
		resp, err := fed.gw.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		fmt.Fprint(h, "targets")
		for _, row := range resp.Trace.Backends {
			if !row.Down {
				for _, b := range fed.gw.backends {
					if b.name == row.Backend {
						fmt.Fprintf(h, " %d", b.idx)
					}
				}
			}
		}
		fmt.Fprintf(h, " ids %v trunc %v dists", resp.IDs, resp.Truncated)
		for _, d := range resp.Dists {
			fmt.Fprintf(h, " %x", math.Float64bits(d))
		}
		fmt.Fprintln(h)
		hashReport(h, resp.Report)

		if i%20 == 19 {
			// A two-record insert routes each record to its nearest
			// member; the records are far apart so batches split.
			recs := make([]server.FileRecord, 2)
			for j := range recs {
				src := fed.files[(i*31+j*457)%len(fed.files)]
				recs[j] = server.RecordFromFile(src)
				recs[j].ID = 0
				recs[j].Path = fmt.Sprintf("/parity/%d/%d", i, j)
			}
			ins, err := fed.gw.Insert(context.Background(), recs)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ins.IDs {
				b, ok := fed.gw.owner(id)
				if !ok {
					t.Fatalf("insert %d: id %d not learned", i, id)
				}
				fmt.Fprintf(h, "placed %d→%d ", id, b.idx)
			}
			hashReport(h, ins.Report)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != gatewayFanInParityHash {
		t.Fatalf("fan-in digest %s, parent commit produced %s", got, gatewayFanInParityHash)
	}
}
