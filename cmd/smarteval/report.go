package main

import (
	"fmt"
	"math"
	"sort"
)

// LatencyStat summarizes one op kind's client-observed latency.
type LatencyStat struct {
	Count  int     `json:"count"`   // operations measured
	Errors int     `json:"errors"`  // operations that failed
	MeanMs float64 `json:"mean_ms"` // mean latency, milliseconds
	P50Ms  float64 `json:"p50_ms"`  // median latency
	P95Ms  float64 `json:"p95_ms"`  // 95th-percentile latency
	P99Ms  float64 `json:"p99_ms"`  // 99th-percentile latency
}

// RecallStat summarizes recall over one query class, measured per
// query against the single-union-store ground truth (§5.4.2:
// |T(q) ∩ A(q)| / |T(q)|, empty truth = 1).
type RecallStat struct {
	Queries int     `json:"queries"` // queries scored
	Mean    float64 `json:"mean"`    // mean per-query recall
	Min     float64 `json:"min"`     // worst single-query recall
}

// Config tags a result with the deployment knobs it ran under — the
// sweep axes of cmd/smarteval. A remote cell knows only what the
// daemon's /v1/stats reports: its shard count, not its fsync policy or
// off-line budget, which it leaves out.
type Config struct {
	Endpoint      string `json:"endpoint"`                 // inProcess or the remote address
	Shards        int    `json:"shards,omitempty"`         // engine shards of the store under test
	Fsync         string `json:"fsync,omitempty"`          // WAL sync policy when durable
	OfflineBudget int    `json:"offline_budget,omitempty"` // §10 offline group budget (0 = adaptive)
}

// inProcess is the Endpoint of a cell that ran against a store the
// harness built itself.
const inProcess = "inprocess"

// ScenarioResult is one scenario × config cell of EVAL_report.json.
type ScenarioResult struct {
	Scenario string `json:"scenario"`       // registry name of the scenario
	Desc     string `json:"desc,omitempty"` // its one-line description
	Trace    string `json:"trace"`          // paper trace backing the population
	Tenants  int    `json:"tenants"`        // interleaved tenant streams
	Config   Config `json:"config"`         // deployment knobs of this cell

	Files   int    `json:"files"`   // corpus size at replay start
	Ops     int    `json:"ops"`     // operations replayed
	Clients int    `json:"clients"` // concurrent query workers
	Seed    uint64 `json:"seed"`    // op-stream seed

	WallSec    float64 `json:"wall_sec"`           // replay wall time, seconds
	Throughput float64 `json:"throughput_ops_sec"` // ops / wall second
	Errors     int     `json:"errors"`             // failed operations, all kinds
	Mutations  int     `json:"mutations"`          // inserts + deletes + modifies applied

	// PerOp breaks latency down by op kind ("point", "insert", ...).
	PerOp map[string]*LatencyStat `json:"per_op"`

	RangeRecall *RecallStat `json:"range_recall,omitempty"` // range recall vs exact truth
	TopKRecall  *RecallStat `json:"topk_recall,omitempty"`  // top-k recall vs exact truth
	// RangeSpurious counts answered range ids outside the exact truth.
	// Acknowledged writes answer at once, so it should be zero; nonzero
	// values flag a staleness or correctness bug, not a recall artefact.
	RangeSpurious int `json:"range_spurious"`

	PointQueries int     `json:"point_queries"`  // point lookups issued
	PointHits    int     `json:"point_hits"`     // lookups the server answered correctly
	PointHitRate float64 `json:"point_hit_rate"` // hits / queries (Fig. 9's metric)

	// Mismatches counts mutation verdicts where the server and the
	// mirror disagreed (e.g. a delete the server found but the truth
	// did not) — any nonzero value invalidates the recall comparison.
	Mismatches int `json:"mismatches"`
}

// CheckFloors validates the result against recall floors (0 disables a
// floor). It returns every violation, empty when the gate passes.
func (r *ScenarioResult) CheckFloors(rangeFloor, topkFloor float64) []string {
	var out []string
	if rangeFloor > 0 && r.RangeRecall != nil && r.RangeRecall.Mean < rangeFloor {
		out = append(out, fmt.Sprintf("%s: range recall %.4f below floor %.4f",
			r.Scenario, r.RangeRecall.Mean, rangeFloor))
	}
	if topkFloor > 0 && r.TopKRecall != nil && r.TopKRecall.Mean < topkFloor {
		out = append(out, fmt.Sprintf("%s: topk recall %.4f below floor %.4f",
			r.Scenario, r.TopKRecall.Mean, topkFloor))
	}
	if r.Mismatches > 0 {
		out = append(out, fmt.Sprintf("%s: %d server/truth mutation verdict mismatches", r.Scenario, r.Mismatches))
	}
	return out
}

// Percentile returns the p-th percentile (0–100) of samples by
// nearest-rank on a sorted copy; 0 for an empty set.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// latStat folds latency samples (milliseconds) into a LatencyStat.
func latStat(samples []float64, errors int) *LatencyStat {
	st := &LatencyStat{Count: len(samples), Errors: errors}
	if len(samples) == 0 {
		return st
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	st.MeanMs = sum / float64(len(samples))
	st.P50Ms = Percentile(samples, 50)
	st.P95Ms = Percentile(samples, 95)
	st.P99Ms = Percentile(samples, 99)
	return st
}

// recallStat folds per-query recalls into a RecallStat (nil when the
// class never ran).
func recallStat(recalls []float64) *RecallStat {
	if len(recalls) == 0 {
		return nil
	}
	st := &RecallStat{Queries: len(recalls), Min: math.Inf(1)}
	sum := 0.0
	for _, r := range recalls {
		sum += r
		if r < st.Min {
			st.Min = r
		}
	}
	st.Mean = sum / float64(len(recalls))
	return st
}
