package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metadata"
	"repro/internal/stats"
	"repro/internal/trace"
)

// churnFraction is the fraction of query operations that are
// accompanied by a metadata insertion in the versioning experiments —
// the update stream whose staleness versioning recovers.
const churnFraction = 0.3

// VersioningOverhead reproduces Fig. 14: (a) average version space per
// index unit and (b) extra query latency spent checking versions, as a
// function of the version ratio, for MSN and EECS.
func VersioningOverhead(p Params) (*Table, *Table) {
	p = p.withDefaults()
	a := &Table{
		ID:      "fig14a",
		Caption: "Versioning space overhead per index unit (KB)",
		Header:  []string{"version ratio", "MSN", "EECS"},
	}
	b := &Table{
		ID:      "fig14b",
		Caption: "Extra query latency from version checks (fraction of total)",
		Header:  []string{"version ratio", "MSN", "EECS"},
	}
	for _, ratio := range []int{1, 2, 4, 8, 16} {
		var spaces, extras [2]float64
		for i, spec := range []*trace.Spec{trace.MSN(), trace.EECS()} {
			space, extra := VersioningOverheadNumbers(spec, ratio, p)
			spaces[i], extras[i] = space, extra
		}
		a.AddRow(fmt.Sprintf("%d", ratio), f1(spaces[0]/1024), f1(spaces[1]/1024))
		b.AddRow(fmt.Sprintf("%d", ratio), pct(extras[0]), pct(extras[1]))
	}
	return a, b
}

// VersioningOverheadNumbers measures one Fig. 14 cell: mean version
// space per index unit (bytes) and the version share of query latency,
// under a heavy update stream (several changes per query, as when
// replica refresh is rare relative to the modification rate).
func VersioningOverheadNumbers(spec *trace.Spec, ratio int, p Params) (space, extraFrac float64) {
	p = p.withDefaults()
	in := core.NewInstance(core.Options{
		Spec: spec, BaseFiles: p.BaseFiles, Units: p.Units, Seed: p.Seed,
		Versioning: true, VersionRatio: ratio, LazyThreshold: 0.1,
	})
	gen := in.QueryGen(stats.Zipf, p.Seed+37)
	rng := stats.NewRNG(p.Seed + 41)
	nextID := uint64(20_000_000)
	var lat, vlat stats.Summary
	const churnPerQuery = 4
	zipfHot := stats.NewZipfGen(rng, 1.1, len(in.Set.Files))
	for i := 0; i < p.Queries; i++ {
		for c := 0; c < churnPerQuery; c++ {
			// Realistic churn mixes new files with repeated
			// modifications of hot files — the latter aggregate within
			// versions (§5.6).
			if c%2 == 0 {
				insertChurnFile(in, rng, &nextID)
			} else {
				modifyChurnFile(in, zipfHot)
			}
		}
		_, res := in.Cluster.RangeOffline(gen.Range(0.05))
		lat.Add(float64(res.Latency))
		vlat.Add(float64(res.VersionLatency))
	}
	var sum stats.Summary
	for _, ch := range in.Replicas.Chains {
		sum.Add(float64(ch.SizeBytes()))
	}
	if lat.Sum() == 0 {
		return sum.Mean(), 0
	}
	return sum.Mean(), vlat.Sum() / lat.Sum()
}

func insertChurnFile(in *core.Instance, rng interface{ IntN(int) int }, nextID *uint64) {
	src := in.Set.Files[rng.IntN(len(in.Set.Files))]
	nf := &metadata.File{ID: *nextID, Path: fmt.Sprintf("/churn/v%d.dat", *nextID)}
	nf.Attrs = src.Attrs
	in.Cluster.InsertFile(nf)
	in.Set.Files = append(in.Set.Files, nf)
	*nextID++
}

// modifyChurnFile re-modifies a popularity-weighted existing file,
// bumping its write volume and modification time.
func modifyChurnFile(in *core.Instance, zipf *stats.ZipfGen) {
	f := in.Set.Files[zipf.Next()]
	mod := *f
	mod.Attrs[metadata.AttrWriteBytes] += 4096
	in.Cluster.ModifyFile(&mod)
}

// RecallVersioning reproduces Tables 5 and 6: recall of range and top-8
// queries, with and without versioning, as the number of queries (and
// hence interleaved updates) grows, for each query distribution.
func RecallVersioning(spec *trace.Spec, p Params) *Table {
	p = p.withDefaults()
	id := "table5"
	if spec.Name == "EECS" {
		id = "table6"
	}
	t := &Table{
		ID:      id,
		Caption: fmt.Sprintf("Recall (%%) of range and top-8 queries ± versioning, %s", spec.Name),
		Header:  []string{"distribution", "kind", "versioning"},
	}
	counts := queryCounts(p)
	for _, n := range counts {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for _, dist := range stats.Distributions {
		for _, kind := range []string{"range", "top-8"} {
			rowOff := []string{dist.String(), kind, "off"}
			rowOn := []string{dist.String(), kind, "on"}
			for _, n := range counts {
				off := RecallVersioningNumber(spec, dist, kind, n, false, p)
				on := RecallVersioningNumber(spec, dist, kind, n, true, p)
				rowOff = append(rowOff, f1(off*100))
				rowOn = append(rowOn, f1(on*100))
			}
			t.AddRow(rowOff...)
			t.AddRow(rowOn...)
		}
	}
	return t
}

func queryCounts(p Params) []int {
	// The paper sweeps 1000–5000 queries; scale to the Params budget.
	base := p.Queries
	return []int{base, 2 * base, 3 * base, 4 * base, 5 * base}
}

// RecallVersioningNumber runs one Table 5/6 cell: nQueries queries of
// the given kind interleaved with churn, returning mean recall.
func RecallVersioningNumber(spec *trace.Spec, dist stats.Distribution, kind string,
	nQueries int, versioning bool, p Params) float64 {

	p = p.withDefaults()
	in := core.NewInstance(core.Options{
		Spec: spec, BaseFiles: p.BaseFiles, Units: p.Units, Seed: p.Seed,
		Versioning: versioning, VersionRatio: 4,
		// A high lazy threshold lets staleness accumulate across the
		// whole sweep, as when replica refresh is rare relative to the
		// query rate.
		LazyThreshold: 0.8,
	})
	gen := in.QueryGen(dist, p.Seed+43)
	rng := stats.NewRNG(p.Seed + 47)
	nextID := uint64(30_000_000)
	out := core.NewRecallOutcome()
	for i := 0; i < nQueries; i++ {
		if rng.Float64() < churnFraction {
			insertChurnFile(in, rng, &nextID)
		}
		if kind == "range" {
			in.ObserveRange(gen.Range(0.04), out)
		} else {
			in.ObserveTopK(gen.TopK(8), out)
		}
	}
	return out.Recall.Mean()
}
