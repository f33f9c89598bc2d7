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
// bits. It was recorded by running this test file, unmodified,
// against the commit before the engine and the gateway shared one
// fan-in (e401604): a mismatch means a target selection, a tie-break or
// an arithmetic order moved.
const fanInParityHash = "87639aa23beab6b12f80a4df2f7954cebb2d7b564e8b24e4ad898bc56a7b3256"

func hashReport(h hash.Hash, r Report) {
	fmt.Fprintf(h, "rep %x %d %d %d %d %x\n", math.Float64bits(r.Latency), r.Messages, r.Hops,
		r.UnitsSearched, r.VersionChecked, math.Float64bits(r.VersionLatency))
}

func hashAnswer(h hash.Hash, a Answer) {
	fmt.Fprintf(h, "targets %v ids %v trunc %v dists", a.Shards, a.IDs, a.Truncated)
	for _, d := range a.Dists {
		fmt.Fprintf(h, " %x", math.Float64bits(d))
	}
	fmt.Fprintln(h)
	hashReport(h, a.Report)
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
	h := sha256.New()
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
		hashAnswer(h, a)
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
			hashReport(h, rep)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fanInParityHash {
		t.Fatalf("fan-in digest %s, parent commit produced %s", got, fanInParityHash)
	}
}
