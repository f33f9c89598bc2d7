package cluster

import (
	"testing"

	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

var sinkIDs []uint64

// msnCluster deploys the 20,000-file, 60-unit MSN tree that semtree's
// benchmarks run on, as the serving engine does: no replica model.
func msnCluster(b *testing.B) (*Cluster, *trace.Set) {
	return deploy(b, 20000, 60, 1, Config{Seed: 1})
}

// BenchmarkPoint times one point query through the deployment — the
// Bloom route, the exact confirmation and the closed-form cost — over
// Zipf names, 80 % of them stored.
func BenchmarkPoint(b *testing.B) {
	c, set := msnCluster(b)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 7)
	queries := make([]query.Point, 64)
	for i := range queries {
		queries[i] = gen.Point(0.8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs, _ = c.Point(queries[i%len(queries)])
	}
}

// BenchmarkTopKOffline times one off-line top-8 query through the
// deployment: group routing, each routed group's search, the rerank and
// the closed-form cost.
func BenchmarkTopKOffline(b *testing.B) {
	c, set := msnCluster(b)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 7)
	queries := make([]query.TopK, 64)
	for i := range queries {
		queries[i] = gen.TopK(8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs, _ = c.TopKOffline(queries[i%len(queries)])
	}
}
