package metadata

import "sort"

// Centroid routing is the one rule every fan-out level above the
// semantic R-tree applies (§3.1.2, §3.4): the engine over its shards,
// the gateway over its members. Each child has a frozen placement
// centroid — a normalized vector over the level's placement predicate —
// and the caller passes the centroids of the children it may route to,
// in child-index order (all shards; the healthy members). Results are
// positions in that slice.

// NearestCentroid returns the position of the centroid nearest v, a
// normalized vector over the placement predicate — the stable semantic
// placement of writes. Equidistant centroids resolve to the lowest
// position.
func NearestCentroid(centroids [][]float64, v []float64) int {
	best, bestDist := 0, -1.0
	for i, c := range centroids {
		var d float64
		for j := range v {
			if j < len(c) {
				x := v[j] - c[j]
				d += x * x
			}
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// NearestCentroids ranks the centroids by distance to a raw query point
// over the queried attrs — projected onto the dimensions the placement
// predicate shares with them and normalized through norm — and returns
// the positions of the closest max, ascending: the paper's
// replica-vector group routing applied to off-line top-k above the
// tree. The ranking is by (distance, position), so a tie at the cut
// keeps the lower position. Queried attributes sharing no dimension
// with the placement predicate carry no signal (every distance is
// zero), so the routing falls back to every child rather than an
// arbitrary fixed prefix.
func NearestCentroids(norm *Normalizer, placement []Attr, centroids [][]float64, attrs []Attr, point []float64, max int) []int {
	overlap := false
	for _, a := range attrs {
		for _, pa := range placement {
			if pa == a {
				overlap = true
			}
		}
	}
	if !overlap || max >= len(centroids) {
		all := make([]int, len(centroids))
		for i := range all {
			all[i] = i
		}
		return all
	}
	type ranked struct {
		pos  int
		dist float64
	}
	rs := make([]ranked, len(centroids))
	for i, centroid := range centroids {
		var d float64
		for j, a := range attrs {
			v := norm.Value(a, point[j])
			// Find the queried attribute's placement dimension (small
			// fixed-size scan).
			for k, pa := range placement {
				if pa == a && k < len(centroid) {
					x := v - centroid[k]
					d += x * x
				}
			}
		}
		rs[i] = ranked{pos: i, dist: d}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].dist != rs[j].dist {
			return rs[i].dist < rs[j].dist
		}
		return rs[i].pos < rs[j].pos
	})
	out := make([]int, max)
	for i := range out {
		out[i] = rs[i].pos
	}
	sort.Ints(out)
	return out
}

// OfflineFanout caps how many of n children an off-line top-k fan-out
// may touch: the most-correlated child plus a few siblings, growing
// slowly with n — the analogue, above the tree, of the cluster's
// offlineMaxGroups, keeping the search "bounded within one or a small
// number of tree nodes" (§3.1.2) at any scale. A positive budget
// overrides the heuristic; either way the cap is clamped to n, so a
// budget ≥ n targets every child and routing can never drop one that
// would contribute to the exact answer.
func OfflineFanout(n, budget int) int {
	m := 1 + n/4
	if budget > 0 {
		m = budget
	}
	if m > n {
		m = n
	}
	return m
}
