package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// QueryLatency reproduces Table 4: mean latency (virtual seconds) of
// point, range and top-k queries on SmartStore versus the R-tree and
// DBMS baselines, for the MSN and EECS traces at TIF ∈ {120, 160}.
//
// The reproduction target is the *shape*: DBMS ≫ R-tree ≫ SmartStore
// (the paper reports ≈10³× between DBMS and SmartStore), with latencies
// growing super-linearly in TIF for the centralized baselines (disk
// paging) and staying near-flat for SmartStore (per-unit in-memory
// scans).
func QueryLatency(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "table4",
		Caption: "Query latency (s): SmartStore vs R-tree vs DBMS (Zipf queries)",
		Header:  []string{"trace", "TIF", "query", "DBMS", "R-tree", "SmartStore"},
	}
	for _, spec := range []*trace.Spec{trace.MSN(), trace.EECS()} {
		for _, tif := range []int{120, 160} {
			rows := queryLatencyCell(spec, tif, p)
			for _, r := range rows {
				t.AddRow(r...)
			}
		}
	}
	return t
}

func queryLatencyCell(spec *trace.Spec, tif int, p Params) [][]string {
	in := core.NewInstance(core.Options{
		Spec: spec, BaseFiles: p.BaseFiles, VirtualTIF: tif,
		Units: p.Units, Seed: p.Seed,
	})
	cfg := baseline.Config{VirtualScale: in.VirtualScale}
	dbms := baseline.NewDBMS(in.Set.Files, in.Set.Norm, cfg)
	rt := baseline.NewRTree(in.Set.Files, in.Set.Norm, cfg)
	gen := in.QueryGen(stats.Zipf, p.Seed+uint64(tif))

	var pD, pR, pS stats.Summary // point
	var rD, rR, rS stats.Summary // range
	var kD, kR, kS stats.Summary // top-k
	pointGen := trace.NewQueryGen(in.Set, stats.Zipf, nil, p.Seed+uint64(tif)+1)

	for i := 0; i < p.Queries; i++ {
		pq := pointGen.Point(0.9)
		_, d := dbms.Point(pq)
		_, r := rt.Point(pq)
		_, s := in.Cluster.Point(pq)
		pD.Add(float64(d.Latency))
		pR.Add(float64(r.Latency))
		pS.Add(float64(s.Latency))

		rq := gen.Range(0.05)
		_, d = dbms.Range(rq)
		_, r = rt.Range(rq)
		_, s = in.Cluster.RangeOffline(rq)
		rD.Add(float64(d.Latency))
		rR.Add(float64(r.Latency))
		rS.Add(float64(s.Latency))

		kq := gen.TopK(8)
		_, d = dbms.TopK(kq)
		_, r = rt.TopK(kq)
		_, s = in.Cluster.TopKOffline(kq)
		kD.Add(float64(d.Latency))
		kR.Add(float64(r.Latency))
		kS.Add(float64(s.Latency))
	}
	tifS := fmt.Sprintf("%d", tif)
	return [][]string{
		{spec.Name, tifS, "point", f2(pD.Mean()), f2(pR.Mean()), f3(pS.Mean())},
		{spec.Name, tifS, "range", f2(rD.Mean()), f2(rR.Mean()), f3(rS.Mean())},
		{spec.Name, tifS, "top-k", f2(kD.Mean()), f2(kR.Mean()), f3(kS.Mean())},
	}
}
