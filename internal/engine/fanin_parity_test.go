package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fanInParityHash is the SHA-256 of everything the engine's routing,
// top-k fold and report composition decide on the fixed stream below —
// target sets, merged ids in order, distance bits and composed report
// bits. It was first recorded against the commit before the engine and
// the gateway shared one fan-in (e401604), and re-recorded twice since:
// once when latency became a closed form instead of a difference of
// absolute virtual clocks — a change to the last bits of latency only,
// which fanInRoundedHash held across — and once, with the rounded
// digest, when acknowledged writes stopped waiting for a lazy replica
// refresh: the insert batch sends no replica multicast and its files
// answer the queries after it. A mismatch means a target selection, a
// tie-break or an arithmetic order moved.
const fanInParityHash = "b3c25b224f11b108689e479a0f4536523744412499bbeb848439ecafe84f5af5"

// fanInRoundedHash digests the same stream with each report's latency
// printed to twelve significant digits instead of its raw bits, so it
// holds across a change that moves latency only in its last bits
// (first recorded at dd2159f).
const fanInRoundedHash = "1849ef0e733cf14fd3a3395b5fc754530b189bb4e475c521218875e5a94fde1a"

// parityDigest feeds the raw-bit and the rounded digest at once.
type parityDigest struct{ raw, rounded hash.Hash }

func (d parityDigest) Write(p []byte) (int, error) {
	d.raw.Write(p)
	return d.rounded.Write(p)
}

func (d parityDigest) report(r Report) {
	// The two zeros stand where the report's version-chain fields were:
	// always 0 when serving, they keep the recorded digests' text.
	fmt.Fprintf(d.raw, "rep %x %d %d %d 0 0\n", math.Float64bits(r.Latency), r.Messages, r.Hops,
		r.UnitsSearched)
	fmt.Fprintf(d.rounded, "rep %.11e %d %d %d 0 0\n", r.Latency, r.Messages, r.Hops,
		r.UnitsSearched)
}

func (d parityDigest) answer(a Answer) {
	fmt.Fprintf(d, "targets %v ids %v trunc %v dists", a.Shards, a.IDs, a.Truncated)
	for _, x := range a.Dists {
		fmt.Fprintf(d, " %x", math.Float64bits(x))
	}
	fmt.Fprintln(d)
	d.report(a.Report)
}

// TestFanInParity replays a fixed 200-query stream (plus one insert
// batch that spans shards) on a seeded 4-shard engine and compares the
// digest of every answer with the one the parent commit produced.
func TestFanInParity(t *testing.T) {
	set := trace.MSN().Generate(800, 9)
	e, err := Build(set.Files, testConfig(24, 4))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewQueryGen(set, stats.Zipf, trace.DefaultQueryAttrs(), 33)
	ctx := context.Background()
	h := parityDigest{sha256.New(), sha256.New()}
	for i := 0; i < 200; i++ {
		var a Answer
		switch i % 5 {
		case 0, 1: // off-line top-k: nearest-centroid routing under the 1+n/4 cap
			a, err = e.TopK(ctx, gen.TopK(3+i%9), QueryOpts{IncludeDists: true})
		case 2: // on-line top-k over every shard, limit cutting the merged answer
			a, err = e.TopK(ctx, gen.TopK(8), QueryOpts{Online: true, IncludeDists: true, Limit: 5})
		case 3:
			a, err = e.Range(ctx, gen.Range(0.2), QueryOpts{Online: i%2 == 0})
		case 4:
			// A top-k over an attribute outside the placement predicate:
			// centroids carry no signal, so routing falls back to every shard.
			f := set.Files[(i*37)%len(set.Files)]
			q := query.NewTopK([]metadata.Attr{metadata.AttrSize}, []float64{f.Attrs[metadata.AttrSize]}, 4)
			a, err = e.TopK(ctx, q, QueryOpts{IncludeDists: true})
		}
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		h.answer(a)
		if i == 99 {
			// One batch drawn from across the corpus lands on several
			// shards; its report composes without a hop rule.
			batch := make([]*metadata.File, 12)
			for j := range batch {
				src := set.Files[(j*67)%len(set.Files)]
				batch[j] = &metadata.File{ID: e.MaxFileID() + uint64(j) + 1, Path: fmt.Sprintf("/parity/%d", j), Attrs: src.Attrs}
			}
			rep, err := e.InsertBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range batch {
				fmt.Fprintf(h, "placed %d ", e.shardFor(f))
			}
			h.report(rep)
		}
	}
	if got := fmt.Sprintf("%x", h.raw.Sum(nil)); got != fanInParityHash {
		t.Errorf("fan-in digest %s, parent commit produced %s", got, fanInParityHash)
	}
	if got := fmt.Sprintf("%x", h.rounded.Sum(nil)); got != fanInRoundedHash {
		t.Errorf("rounded fan-in digest %s, parent commit produced %s", got, fanInRoundedHash)
	}
}
