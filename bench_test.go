// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one per artifact — see DESIGN.md §3 for the mapping
// and EXPERIMENTS.md for paper-vs-measured values. Custom metrics carry
// the headline numbers of each artifact (latencies in virtual seconds,
// recall/hit-rate fractions, message counts) alongside the usual
// wall-clock cost of regenerating it.
//
// Run a single artifact with e.g.
//
//	go test -bench=BenchmarkTable4 -benchtime=1x .
package smartstore_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchParams returns the evaluation-scale parameters: 60 storage units
// (§5.1) and populations large enough for stable statistics while
// keeping the full bench sweep tractable.
func benchParams() experiments.Params {
	return experiments.Params{BaseFiles: 3000, Units: 60, Queries: 100, Seed: 2009}
}

func BenchmarkTable1_HPScaleUp(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if tb := experiments.TraceScaleUp(trace.HP(), p); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2_MSNScaleUp(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if tb := experiments.TraceScaleUp(trace.MSN(), p); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3_EECSScaleUp(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if tb := experiments.TraceScaleUp(trace.EECS(), p); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// cells reads the numeric cells of the first table row whose leading
// cells equal key.
func cells(tb *experiments.Table, key ...string) []float64 {
	for _, row := range tb.Rows {
		if slices.Equal(row[:len(key)], key) {
			out := make([]float64, len(row)-len(key))
			for i, c := range row[len(key):] {
				fmt.Sscanf(c, "%f", &out[i])
			}
			return out
		}
	}
	return nil
}

func BenchmarkTable4_QueryLatency(b *testing.B) {
	p := benchParams()
	p.Queries = 40
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.QueryLatency(p)
	}
	c := cells(tb, "MSN", "120", "range")
	b.ReportMetric(c[0], "dbms_range_s")
	b.ReportMetric(c[1], "rtree_range_s")
	b.ReportMetric(c[2], "smart_range_s")
	b.ReportMetric(c[0]/c[2], "dbms_over_smart")
}

func BenchmarkFigure7_SpaceOverhead(b *testing.B) {
	p := benchParams()
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.SpaceOverhead(p)
	}
	c := cells(tb, "MSN")
	b.ReportMetric(c[0], "smart_KB_per_node")
	b.ReportMetric(c[1], "rtree_KB")
	b.ReportMetric(c[2], "dbms_KB")
}

func BenchmarkFigure8_RoutingHops(b *testing.B) {
	p := benchParams()
	var h *stats.Histogram
	for i := 0; i < b.N; i++ {
		h = experiments.RoutingHopsHistogram(trace.MSN(), p)
	}
	b.ReportMetric(h.Fraction(0), "zero_hop_frac")
	b.ReportMetric(h.Fraction(1), "one_hop_frac")
}

func BenchmarkFigure9_PointHitRate(b *testing.B) {
	p := benchParams()
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = experiments.PointHitRateNumber(trace.MSN(), p)
	}
	b.ReportMetric(rate, "hit_rate")
}

func BenchmarkFigure10_RecallHP(b *testing.B) {
	p := benchParams()
	var tU, rU, tZ, rZ float64
	for i := 0; i < b.N; i++ {
		tU, rU = experiments.RecallHPNumbers(stats.Uniform, p)
		tZ, rZ = experiments.RecallHPNumbers(stats.Zipf, p)
	}
	b.ReportMetric(tU, "top8_uniform")
	b.ReportMetric(rU, "range_uniform")
	b.ReportMetric(tZ, "top8_zipf")
	b.ReportMetric(rZ, "range_zipf")
}

func BenchmarkFigure11_OptimalThresholds(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		a, bb := experiments.OptimalThresholds(p)
		if len(a.Rows) == 0 || len(bb.Rows) == 0 {
			b.Fatal("empty threshold tables")
		}
	}
}

func BenchmarkFigure12_RecallScale(b *testing.B) {
	p := benchParams()
	p.Queries = 60
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = experiments.RecallScaleNumber(stats.Zipf, 20, p)
		large = experiments.RecallScaleNumber(stats.Zipf, 100, p)
	}
	b.ReportMetric(small, "recall_20_units")
	b.ReportMetric(large, "recall_100_units")
}

func BenchmarkFigure13_OnOffline(b *testing.B) {
	p := benchParams()
	p.Queries = 60
	var onLat, offLat, onMsg, offMsg float64
	for i := 0; i < b.N; i++ {
		onLat, offLat, onMsg, offMsg = experiments.OnOfflineNumbers(60, p)
	}
	b.ReportMetric(onLat, "online_s")
	b.ReportMetric(offLat, "offline_s")
	b.ReportMetric(onMsg, "online_msgs")
	b.ReportMetric(offMsg, "offline_msgs")
}

func BenchmarkFigure14_VersioningOverhead(b *testing.B) {
	p := benchParams()
	p.Queries = 60
	var space1, extra1, space8, extra8 float64
	for i := 0; i < b.N; i++ {
		space1, extra1 = experiments.VersioningOverheadNumbers(trace.MSN(), 1, p)
		space8, extra8 = experiments.VersioningOverheadNumbers(trace.MSN(), 8, p)
	}
	b.ReportMetric(space1/1024, "space_ratio1_KB")
	b.ReportMetric(space8/1024, "space_ratio8_KB")
	b.ReportMetric(extra1, "extra_latency_ratio1")
	b.ReportMetric(extra8, "extra_latency_ratio8")
}

func BenchmarkTable5_RecallVersioningMSN(b *testing.B) {
	p := benchParams()
	p.Queries = 50
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = experiments.RecallVersioningNumber(trace.MSN(), stats.Zipf, "range", p.Queries*3, false, p)
		on = experiments.RecallVersioningNumber(trace.MSN(), stats.Zipf, "range", p.Queries*3, true, p)
	}
	b.ReportMetric(off, "recall_no_versioning")
	b.ReportMetric(on, "recall_versioning")
}

func BenchmarkTable6_RecallVersioningEECS(b *testing.B) {
	p := benchParams()
	p.Queries = 50
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = experiments.RecallVersioningNumber(trace.EECS(), stats.Zipf, "range", p.Queries*3, false, p)
		on = experiments.RecallVersioningNumber(trace.EECS(), stats.Zipf, "range", p.Queries*3, true, p)
	}
	b.ReportMetric(off, "recall_no_versioning")
	b.ReportMetric(on, "recall_versioning")
}

func BenchmarkAblation_LSIvsKMeans(b *testing.B) {
	p := benchParams()
	p.Queries = 30
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationLSIvsKMeans(p); len(tb.Rows) != 3 {
			b.Fatal("unexpected ablation rows")
		}
	}
}

func BenchmarkAblation_BloomSizing(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationBloomSizing(p); len(tb.Rows) == 0 {
			b.Fatal("empty bloom ablation")
		}
	}
}

func BenchmarkAblation_AdmissionThreshold(b *testing.B) {
	p := benchParams()
	p.Queries = 30
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationAdmissionThreshold(p); len(tb.Rows) == 0 {
			b.Fatal("empty threshold ablation")
		}
	}
}

func BenchmarkAblation_AutoConfig(b *testing.B) {
	p := benchParams()
	p.Queries = 30
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationAutoConfig(p); len(tb.Rows) == 0 {
			b.Fatal("empty autoconfig ablation")
		}
	}
}

func BenchmarkAblation_ReplicaDepth(b *testing.B) {
	p := benchParams()
	p.Queries = 30
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationReplicaDepth(p); len(tb.Rows) == 0 {
			b.Fatal("empty replica-depth ablation")
		}
	}
}

// Service-path benchmarks: wall-clock cost of a query through the
// smartstored HTTP layer (in-process httptest server), capturing the
// serving trajectory — cached vs uncached, and concurrent fan-in —
// alongside the paper's simnet numbers.

// newServedBench stands up an in-process daemon over the bench-scale
// store.
func newServedBench(b *testing.B, cacheEntries int) *client.Client {
	return newShardedServedBench(b, cacheEntries, 1)
}

// newShardedServedBench stands up an in-process daemon over a store
// partitioned across the given engine shard count.
func newShardedServedBench(b *testing.B, cacheEntries, shards int) *client.Client {
	b.Helper()
	set, err := smartstore.GenerateTrace("MSN", 3000, 2009)
	if err != nil {
		b.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 60, Shards: shards, Seed: 2009})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(store, server.Options{CacheEntries: cacheEntries}))
	b.Cleanup(ts.Close)
	return client.New(ts.URL)
}

var servedAttrs = []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes, smartstore.AttrWriteBytes}

func BenchmarkServedRangeQuery_Uncached(b *testing.B) {
	cl := newServedBench(b, -1) // cache disabled: every request executes
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(ctx, smartstore.NewRangeQuery(servedAttrs,
			[]float64{0, 0, 0}, []float64{40000 + float64(i%64), 4e7, 8e7})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServedRangeQuery_Cached(b *testing.B) {
	cl := newServedBench(b, 1024)
	ctx := context.Background()
	q := smartstore.NewRangeQuery(servedAttrs, []float64{0, 0, 0}, []float64{40000, 4e7, 8e7})
	// Prime the cache, then every iteration is a hit.
	if _, err := cl.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected cache hit")
		}
	}
}

func BenchmarkServedTopK_Concurrent(b *testing.B) {
	cl := newServedBench(b, 1024)
	// A globally unique point per request — drawn from a shared counter
	// so goroutines never replay each other's keys — keeps this
	// measuring concurrent query execution rather than cache hits.
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := []float64{40000 + float64(seq.Add(1)), 3e7, 6e7}
			if _, err := cl.Query(context.Background(), smartstore.NewTopKQuery(servedAttrs, p, 8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServedSharded_Concurrent measures concurrent mixed query
// throughput against 1 / 2 / 4 engine shards. On ≥2 cores the sharded
// engine's per-shard locking and parallel fan-out raise throughput with
// the shard count (per-shard slot hold times shrink with the shard's
// population); on a single core the fan-out is pure overhead and the
// sub-benchmarks document that floor instead.
func BenchmarkServedSharded_Concurrent(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl := newShardedServedBench(b, -1, shards) // cache disabled: every request executes
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if n%2 == 0 {
						p := []float64{40000 + float64(n), 3e7, 6e7}
						if _, err := cl.Query(context.Background(), smartstore.NewTopKQuery(servedAttrs, p, 8)); err != nil {
							b.Fatal(err)
						}
					} else {
						hi := 40000 + float64(n%512)
						if _, err := cl.Query(context.Background(), smartstore.NewRangeQuery(servedAttrs,
							[]float64{0, 0, 0}, []float64{hi, 4e7, 8e7})); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}
