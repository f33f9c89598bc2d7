package semtree

import (
	"math"
	"sort"

	"repro/internal/metadata"
	"repro/internal/query"
)

// QueryStats reports the work a query performed, feeding the cost model
// (Table 4 latencies) and the grouping-efficiency histogram (Fig. 8).
type QueryStats struct {
	// NodesVisited is the number of tree nodes whose summaries were
	// examined.
	NodesVisited int
	// UnitsSearched is the number of storage units whose file lists were
	// scanned.
	UnitsSearched int
	// RecordsScanned is the number of file records examined inside
	// storage units.
	RecordsScanned int
	// GroupsTouched is the number of distinct first-level semantic
	// groups containing searched units. Hops of routing distance =
	// GroupsTouched − 1 (0-hop = served within one group, §5.3).
	GroupsTouched int
	// BloomChecks counts Bloom-filter membership tests (point queries).
	BloomChecks int
}

// Hops returns the routing distance of the query in groups beyond the
// first (Fig. 8's x-axis).
func (s QueryStats) Hops() int {
	if s.GroupsTouched <= 1 {
		return 0
	}
	return s.GroupsTouched - 1
}

// RangeQuery answers a multi-dimensional range query (§3.3.1) by
// descending every subtree whose MBR intersects the query rectangle and
// scanning the files of intersecting storage units.
func (t *Tree) RangeQuery(q query.Range) ([]uint64, QueryStats) {
	rect := queryRect(q.Attrs, q.Lo, q.Hi)
	var out []uint64
	var st QueryStats
	groups := map[*Node]struct{}{}

	var walk func(n *Node)
	walk = func(n *Node) {
		st.NodesVisited++
		if !n.HasMBR || !n.MBR.Intersects(rect) {
			return
		}
		if n.IsLeaf() {
			st.UnitsSearched++
			found := false
			for _, f := range n.Unit.Files {
				st.RecordsScanned++
				if q.Matches(f) {
					out = append(out, f.ID)
					found = true
				}
			}
			// A group counts toward routing distance when it serves
			// results (Fig. 8 measures the groups an operation is
			// served by).
			if found {
				groups[t.GroupOf(n)] = struct{}{}
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	st.GroupsTouched = len(groups)
	return out, st
}

// TopKQuery answers a top-k NN query (§3.3.2) with the paper's MaxD
// pruning: the storage unit most correlated with the query point is
// searched first to establish MaxD (the distance of the current k-th
// best result), then sibling subtrees are examined only while their
// MBR's minimum distance beats MaxD.
func (t *Tree) TopKQuery(q query.TopK) ([]uint64, QueryStats) {
	var st QueryStats
	groups := map[*Node]struct{}{}

	type cand struct {
		id   uint64
		dist float64
	}
	var best []cand
	maxD := -1.0 // distance of the current k-th result; -1 = fewer than k yet

	consider := func(c cand) {
		i := sort.Search(len(best), func(i int) bool {
			if best[i].dist != c.dist {
				return best[i].dist > c.dist
			}
			return best[i].id > c.id
		})
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = c
		if len(best) > q.K {
			best = best[:q.K]
		}
		if len(best) == q.K {
			maxD = best[q.K-1].dist
		}
	}

	searchUnit := func(n *Node) {
		st.UnitsSearched++
		groups[t.GroupOf(n)] = struct{}{}
		for _, f := range n.Unit.Files {
			st.RecordsScanned++
			d := q.Dist(t.Norm, f)
			if maxD < 0 || d < maxD || len(best) < q.K {
				consider(cand{f.ID, d})
			}
		}
	}

	// Order subtrees by ascending MBR distance and prune with MaxD.
	var walk func(n *Node)
	walk = func(n *Node) {
		st.NodesVisited++
		if n.IsLeaf() {
			searchUnit(n)
			return
		}
		type childDist struct {
			c *Node
			d float64
		}
		cds := make([]childDist, 0, len(n.Children))
		for _, c := range n.Children {
			if !c.HasMBR {
				continue
			}
			// Distances compare in normalized space; q.Dist returns
			// squared distance, so square the MBR bound to match.
			d := normalizedMinDist(t.Norm, c.MBR, q.Attrs, q.Point)
			cds = append(cds, childDist{c, d * d})
		}
		sort.Slice(cds, func(i, j int) bool { return cds[i].d < cds[j].d })
		for _, cd := range cds {
			if maxD >= 0 && cd.d > maxD && len(best) >= q.K {
				break // §3.3.2: no subtree beyond MaxD can improve results
			}
			walk(cd.c)
		}
	}
	walk(t.Root)

	st.GroupsTouched = len(groups)
	out := make([]uint64, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out, st
}

// PointQuery answers a filename point query (§3.3.3) by routing along
// the Bloom-filter path: a subtree is descended only when its unioned
// filter reports a positive hit; matching units are then checked
// exactly. False positives cost extra unit searches; false negatives
// cannot occur for names actually stored.
func (t *Tree) PointQuery(q query.Point) ([]uint64, QueryStats) {
	var out []uint64
	var st QueryStats
	groups := map[*Node]struct{}{}

	var walk func(n *Node)
	walk = func(n *Node) {
		st.NodesVisited++
		st.BloomChecks++
		if n.Filter == nil || !n.Filter.Contains(q.Filename) {
			return
		}
		if n.IsLeaf() {
			st.UnitsSearched++
			groups[t.GroupOf(n)] = struct{}{}
			matches := n.Unit.LookupPath(q.Filename)
			for _, f := range matches {
				out = append(out, f.ID)
			}
			st.RecordsScanned += len(matches)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	st.GroupsTouched = len(groups)
	return out, st
}

// RouteRangeGroups returns up to maxGroups off-line candidate groups for
// a range query from the replicated first-level index information
// (semantic vector, MBR and member count, §3.4), best *expected matching
// mass* first: a group's file count times the fraction of its MBR the
// query window covers per dimension, assuming uniform density within
// the MBR. Density weighting matters: a group with one behavioural
// outlier has an enormous MBR that overlaps everything but holds almost
// nothing in any given window, while the tight group actually holding
// the matching files wins on density. Beyond the target, siblings join
// only while their expected mass is a substantial fraction of the
// target's (§3.3.1's sibling checking — "query traffic is very likely
// bounded within one or a small number of tree nodes"); the inaccuracy
// of this bounded search is exactly what the Recall measure of §5.4.2
// quantifies.
func (t *Tree) RouteRangeGroups(q query.Range, maxGroups int) []*Node {
	if maxGroups < 1 {
		maxGroups = 1
	}
	groups := t.FirstLevelIndexUnits()
	type scored struct {
		g    *Node
		mass float64
		dist float64
	}
	reqV := t.RequestVectorRange(q)
	cands := make([]scored, 0, len(groups))
	for _, g := range groups {
		mass := t.expectedMass(g, q)
		cands = append(cands, scored{g, mass, vecDist(reqV, g.Vector)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mass != cands[j].mass {
			return cands[i].mass > cands[j].mass
		}
		return cands[i].dist < cands[j].dist
	})
	out := []*Node{cands[0].g}
	// Siblings join when they carry a meaningful share of the expected
	// mass (0-hop stays the common case, Fig. 8).
	const siblingShare = 0.15
	for _, c := range cands[1:] {
		if len(out) >= maxGroups {
			break
		}
		if cands[0].mass <= 0 || c.mass < siblingShare*cands[0].mass {
			break
		}
		out = append(out, c.g)
	}
	return out
}

// expectedMass estimates how many of g's files fall inside the query
// window: member count times the covered fraction of the group MBR per
// dimension, assuming uniform density within the MBR.
func (t *Tree) expectedMass(g *Node, q query.Range) float64 {
	if !g.HasMBR {
		return 0
	}
	mass := float64(t.groupFileCount(g))
	for i, a := range q.Attrs {
		qlo := t.Norm.Value(a, q.Lo[i])
		qhi := t.Norm.Value(a, q.Hi[i])
		mlo := t.Norm.Value(a, g.MBR.Lo[a])
		mhi := t.Norm.Value(a, g.MBR.Hi[a])
		lo := math.Max(qlo, mlo)
		hi := math.Min(qhi, mhi)
		if hi < lo {
			return 0
		}
		width := mhi - mlo
		if width <= 0 {
			continue // degenerate dimension: fully covered
		}
		frac := (hi - lo) / width
		if frac > 1 {
			frac = 1
		}
		mass *= frac
	}
	return mass
}

// groupFileCount returns the number of files under group g (part of the
// replicated index-unit summary).
func (t *Tree) groupFileCount(g *Node) int {
	var leaves []*Node
	leaves = g.Leaves(leaves)
	n := 0
	for _, l := range leaves {
		n += l.Unit.Len()
	}
	return n
}

// RouteTopKGroups returns up to maxGroups candidate groups for a top-k
// query: groups ranked by MBR distance to the query point (ascending),
// ties broken by local density (count over MBR volume in the queried
// dimensions). Additional groups join only while their MBR still
// touches the point's neighbourhood — the sibling verification of
// §3.3.2's MaxD refinement.
func (t *Tree) RouteTopKGroups(q query.TopK, maxGroups int) []*Node {
	if maxGroups < 1 {
		maxGroups = 1
	}
	groups := t.FirstLevelIndexUnits()
	type scored struct {
		g       *Node
		dist    float64
		density float64
	}
	cands := make([]scored, 0, len(groups))
	for _, g := range groups {
		md := math.Inf(1)
		density := 0.0
		if g.HasMBR {
			md = normalizedMinDist(t.Norm, g.MBR, q.Attrs, q.Point)
			vol := 1.0
			for _, a := range q.Attrs {
				w := t.Norm.Value(a, g.MBR.Hi[a]) - t.Norm.Value(a, g.MBR.Lo[a])
				if w < 1e-6 {
					w = 1e-6
				}
				vol *= w
			}
			density = float64(t.groupFileCount(g)) / vol
		}
		cands = append(cands, scored{g, md, density})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].density > cands[j].density
	})
	out := []*Node{cands[0].g}
	// Sibling groups whose MBRs also (nearly) contain the point may hold
	// closer neighbours; check them per §3.3.2.
	const nearEps = 0.12
	for _, c := range cands[1:] {
		if len(out) >= maxGroups {
			break
		}
		if c.dist > cands[0].dist+nearEps {
			break
		}
		out = append(out, c.g)
	}
	return out
}

func vecDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		if i < len(b) {
			d := a[i] - b[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// RequestVectorRange summarizes a range query as a request vector (its
// window centre) in normalized space over the tree's grouping attrs.
func (t *Tree) RequestVectorRange(q query.Range) []float64 {
	v := make([]float64, len(t.Attrs))
	for i, a := range t.Attrs {
		// Attributes outside the query keep the mid-range default 0.5.
		v[i] = 0.5
		for j, qa := range q.Attrs {
			if qa == a {
				v[i] = (t.Norm.Value(a, q.Lo[j]) + t.Norm.Value(a, q.Hi[j])) / 2
			}
		}
	}
	return v
}

// RequestVectorTopK summarizes a top-k query as a request vector.
func (t *Tree) RequestVectorTopK(q query.TopK) []float64 {
	v := make([]float64, len(t.Attrs))
	for i, a := range t.Attrs {
		v[i] = 0.5
		for j, qa := range q.Attrs {
			if qa == a {
				v[i] = t.Norm.Value(a, q.Point[j])
			}
		}
	}
	return v
}

// SearchGroupRange scans only the units under the given first-level
// group for a range query — the local search the off-line approach
// performs at the routed target (§3.4).
func (t *Tree) SearchGroupRange(group *Node, q query.Range) ([]uint64, QueryStats) {
	rect := queryRect(q.Attrs, q.Lo, q.Hi)
	var out []uint64
	var st QueryStats
	st.GroupsTouched = 1
	var leaves []*Node
	leaves = group.Leaves(leaves)
	for _, n := range leaves {
		st.NodesVisited++
		if !n.HasMBR || !n.MBR.Intersects(rect) {
			continue
		}
		st.UnitsSearched++
		for _, f := range n.Unit.Files {
			st.RecordsScanned++
			if q.Matches(f) {
				out = append(out, f.ID)
			}
		}
	}
	return out, st
}

// SearchGroupTopK scans only the given group's units for a top-k query.
func (t *Tree) SearchGroupTopK(group *Node, q query.TopK) ([]uint64, QueryStats) {
	var st QueryStats
	st.GroupsTouched = 1
	type cand struct {
		id   uint64
		dist float64
	}
	var cands []cand
	var leaves []*Node
	leaves = group.Leaves(leaves)
	for _, n := range leaves {
		st.NodesVisited++
		st.UnitsSearched++
		for _, f := range n.Unit.Files {
			st.RecordsScanned++
			cands = append(cands, cand{f.ID, q.Dist(t.Norm, f)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	k := q.K
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out, st
}

// AllFiles returns every file in the tree (ground-truth scans).
func (t *Tree) AllFiles() []*metadata.File {
	var out []*metadata.File
	for _, l := range t.leaves {
		out = append(out, l.Unit.Files...)
	}
	return out
}

// OverlapsRange reports whether the tree's root MBR intersects the
// range query's rectangle — the shard-level pruning test the engine's
// fan-out uses to skip shards whose entire population falls outside the
// queried window without touching their deployment state.
func (t *Tree) OverlapsRange(q query.Range) bool {
	if !t.Root.HasMBR {
		return false
	}
	return t.Root.MBR.Intersects(queryRect(q.Attrs, q.Lo, q.Hi))
}

// MayContainPath reports whether any storage unit's Bloom filter admits
// the path — the shard-level pruning test for point-query fan-out.
// Names enter unit filters the moment a file is inserted (visibility
// staleness applies only to the replicated query snapshot), and Bloom
// filters never delete, so a negative proves the shard cannot answer:
// no false negatives, only the per-unit false-positive rate. Individual
// unit filters are consulted rather than the root's union — OR-ing the
// member checks has a far lower false-positive rate than one filter
// whose bit array is the union of all of them.
func (t *Tree) MayContainPath(path string) bool {
	for _, l := range t.leaves {
		if l.Unit.MayContain(path) {
			return true
		}
	}
	return false
}
