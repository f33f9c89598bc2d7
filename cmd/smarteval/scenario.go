package main

import (
	"fmt"
	"strings"

	"repro/internal/metadata"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scenario is one named workload mix: a paper trace to generate the
// population and query anchors from, plus one operation stream per
// tenant. Multi-tenant scenarios interleave their tenants' streams
// deterministically, so tenants with different attribute subsets and
// skews contend on the same deployment — the cross-layer workload
// taxonomy the sweep covers.
type Scenario struct {
	Name    string             // registry key, e.g. "zipf-hot"
	Desc    string             // one-line description for reports
	Trace   string             // paper trace backing the population (HP/MSN/EECS)
	Tenants []trace.StreamSpec // one op-stream spec per tenant, interleaved on replay
}

// Ops generates the scenario's deterministic operation sequence: n ops
// split evenly across tenants, each tenant's stream seeded from the run
// seed and its tenant index, interleaved in seed-deterministic order.
func (s Scenario) Ops(set *trace.Set, n int, seed uint64) []trace.Op {
	if len(s.Tenants) == 1 {
		return trace.NewOpStream(set, s.Tenants[0], seed).Take(n)
	}
	per := make([][]trace.Op, len(s.Tenants))
	for i, spec := range s.Tenants {
		share := n / len(s.Tenants)
		if i < n%len(s.Tenants) {
			share++
		}
		per[i] = trace.NewOpStream(set, spec, seed+uint64(i)*1_000_003).Take(share)
	}
	return trace.Interleave(seed, per...)
}

// Scenarios is the built-in registry, covering the diversity axes of
// the evaluation: id skew (Zipf vs uniform), arrival shape (steady vs
// bursty), op balance (scan-heavy vs insert-heavy) and tenancy
// (single-tenant vs mixed attribute subsets).
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:  "zipf-hot",
			Desc:  "read-mostly traffic concentrated on the popularity head, steady arrivals",
			Trace: "MSN",
			Tenants: []trace.StreamSpec{{
				Dist: stats.Zipf,
				Mix:  trace.Mix{Point: 2, Range: 3, TopK: 5},
			}},
		},
		{
			Name:  "uniform-scan",
			Desc:  "scan-heavy wide range queries anchored uniformly across the population",
			Trace: "EECS",
			Tenants: []trace.StreamSpec{{
				Dist:       stats.Uniform,
				Mix:        trace.Mix{Point: 1, Range: 8, TopK: 1},
				RangeWidth: 0.25,
			}},
		},
		{
			Name:  "bursty-mixed",
			Desc:  "bursts of mixed reads and writes separated by idle gaps (paced replay)",
			Trace: "HP",
			Tenants: []trace.StreamSpec{{
				Dist:     stats.Zipf,
				Mix:      trace.Mix{Point: 2, Range: 3, TopK: 3, Insert: 1, Delete: 0.5, Modify: 0.5},
				BurstLen: 32,
				OpGap:    0.0002,
				BurstGap: 0.02,
			}},
		},
		{
			Name:  "insert-heavy",
			Desc:  "ingest-dominated mix growing the population mid-run",
			Trace: "MSN",
			Tenants: []trace.StreamSpec{{
				Dist: stats.Zipf,
				Mix:  trace.Mix{Point: 1, Range: 1, TopK: 2, Insert: 4, Delete: 1, Modify: 1},
			}},
		},
		{
			Name:  "multi-tenant",
			Desc:  "three tenants querying different attribute subsets under different skews",
			Trace: "MSN",
			Tenants: []trace.StreamSpec{
				{
					Dist: stats.Zipf,
					Mix:  trace.Mix{Point: 1, Range: 3, TopK: 4},
				},
				{
					Dist:  stats.Uniform,
					Mix:   trace.Mix{Range: 4, TopK: 2},
					Attrs: []metadata.Attr{metadata.AttrSize, metadata.AttrATime},
				},
				{
					Dist:       stats.Gauss,
					Mix:        trace.Mix{Range: 2, TopK: 4, Insert: 1},
					Attrs:      []metadata.Attr{metadata.AttrCTime, metadata.AttrAccessFreq},
					RangeWidth: 0.1,
				},
			},
		},
	}
}

// ByNames resolves a comma-separated scenario selection ("all" or
// empty selects every built-in), preserving registry order.
func ByNames(names string) ([]Scenario, error) {
	all := Scenarios()
	names = strings.TrimSpace(names)
	if names == "" || names == "all" {
		return all, nil
	}
	byName := make(map[string]Scenario, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	var out []Scenario
	for _, raw := range strings.Split(names, ",") {
		name := strings.TrimSpace(raw)
		s, ok := byName[name]
		if !ok {
			known := make([]string, len(all))
			for i, sc := range all {
				known[i] = sc.Name
			}
			return nil, fmt.Errorf("eval: unknown scenario %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}
