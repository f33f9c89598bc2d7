package cluster

import (
	"slices"

	"repro/internal/merge"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/simnet"
)

// RangeOnline answers a range query with the on-line multicast approach
// (§3.3.1): the client contacts a random home unit, which multicasts the
// query to every first-level index-unit host; hosts whose group MBR
// intersects forward into member units; matching units scan and reply.
func (c *Cluster) RangeOnline(q query.Range) ([]uint64, Result) {
	return c.rangeQuery(q, c.HomeUnit(), c.Tree.FirstLevelIndexUnits(), true)
}

// offlineMaxGroups caps how many groups the off-line path may search:
// the target plus a few high-mass siblings, growing slowly with the
// number of groups so the search stays "bounded within one or a small
// number of tree nodes" (§3.1.2) at any scale.
func (c *Cluster) offlineMaxGroups() int {
	n := len(c.Tree.FirstLevelIndexUnits())
	m := 3
	if extra := n / 4; extra > 0 {
		m += extra
	}
	if m > n {
		m = n
	}
	return m
}

// RangeOffline answers a range query with off-line pre-processing
// (§3.4): the home unit folds the request against its local replica of
// first-level index-unit summaries and forwards the query directly to
// the most-correlated group, plus any sibling group whose replica
// indicates substantial matching mass.
func (c *Cluster) RangeOffline(q query.Range) ([]uint64, Result) {
	return c.RangeOfflineN(q, 0)
}

// RangeOfflineN is RangeOffline with an explicit group budget; a
// non-positive budget selects the deployment default. The engine uses
// it to divide one logical query's search breadth across shards. An
// explicit budget covering every group searches all of them — the
// heuristic sibling cut-offs only bound the *adaptive* routing, so a
// configured exhaustive budget provably drops no contributing group
// (the top end of the evaluation harness's recall/cost sweep).
func (c *Cluster) RangeOfflineN(q query.Range, maxGroups int) ([]uint64, Result) {
	home := c.HomeUnit()
	targets := c.offlineTargets(maxGroups, func(m int) []*semtree.Node {
		return c.Tree.RouteRangeGroups(q, m)
	})
	return c.rangeQuery(q, home, targets, false)
}

// rangeQuery searches groups from home and pools their matches.
func (c *Cluster) rangeQuery(q query.Range, home *semtree.Node, groups []*semtree.Node, online bool) ([]uint64, Result) {
	ids, res, _ := c.runComplex(home, groups, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		return c.searchGroupRange(g, q)
	}, online)
	return ids, res
}

// offlineTargets resolves an off-line query's target groups: a
// non-positive budget routes adaptively under the deployment default; an
// explicit budget that covers every first-level group searches all of
// them; anything else routes adaptively under the explicit cap.
func (c *Cluster) offlineTargets(maxGroups int, route func(int) []*semtree.Node) []*semtree.Node {
	groups := c.Tree.FirstLevelIndexUnits()
	if maxGroups > 0 && maxGroups >= len(groups) {
		return groups
	}
	if maxGroups <= 0 {
		maxGroups = c.offlineMaxGroups()
	}
	return route(maxGroups)
}

// TopKOnline answers a top-k query via multicast over all groups.
func (c *Cluster) TopKOnline(q query.TopK) ([]uint64, Result) {
	return c.topK(q, c.HomeUnit(), c.Tree.FirstLevelIndexUnits(), true)
}

// TopKOffline answers a top-k query at the most-correlated group plus
// any sibling whose MBR also reaches the query point's neighbourhood
// (the MaxD sibling verification of §3.3.2).
func (c *Cluster) TopKOffline(q query.TopK) ([]uint64, Result) {
	return c.TopKOfflineN(q, 0)
}

// TopKOfflineN is TopKOffline with an explicit group budget; a
// non-positive budget selects the deployment default. As with ranges,
// an explicit budget covering every group searches all of them.
func (c *Cluster) TopKOfflineN(q query.TopK, maxGroups int) ([]uint64, Result) {
	home := c.HomeUnit()
	targets := c.offlineTargets(maxGroups, func(m int) []*semtree.Node {
		return c.Tree.RouteTopKGroups(q, m)
	})
	return c.topK(q, home, targets, false)
}

// topK searches groups from home and reranks the pooled candidates.
func (c *Cluster) topK(q query.TopK, home *semtree.Node, groups []*semtree.Node, online bool) ([]uint64, Result) {
	ids, res, found := c.runComplex(home, groups, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		return c.searchGroupTopK(g, q)
	}, online)
	final := c.rerankTopK(ids, q)
	res.Hops = contributingHops(found, final)
	return final, res
}

// contributingHops counts the groups that own at least one final result
// (the Fig. 8 "served by" metric), minus one.
func contributingHops(found [][]uint64, final []uint64) int {
	in := make(map[uint64]bool, len(final))
	for _, id := range final {
		in[id] = true
	}
	contributing := 0
	for _, ids := range found {
		for _, id := range ids {
			if in[id] {
				contributing++
				break
			}
		}
	}
	if contributing <= 1 {
		return 0
	}
	return contributing - 1
}

// rerankTopK merges per-group candidate lists into the final k by true
// distance (the MaxD refinement step of §3.3.2), ascending by (dist,
// id) — also when the pool holds no more than k candidates, which
// arrive in group completion order.
func (c *Cluster) rerankTopK(ids []uint64, q query.TopK) []uint64 {
	byID := c.fileByID()
	cands := make([]merge.Cand, 0, len(ids))
	for _, id := range ids {
		if f, ok := byID[id]; ok {
			cands = append(cands, merge.Cand{ID: id, Dist: q.Dist(c.Tree.Norm, f)})
		}
	}
	slices.SortFunc(cands, merge.Compare)
	k := min(q.K, len(cands))
	out := make([]uint64, k)
	for i, cd := range cands[:k] {
		out[i] = cd.ID
	}
	return out
}

// runComplex searches the candidate groups in order and accounts the
// shared fan-out/fan-in pattern of complex queries: latency and
// messages by complexCost, hops as the groups that returned ids, minus
// one. online=true models the multicast identification phase; offline
// the local LSI fold-in. It returns the pooled ids in the order the
// groups complete, and each group's own ids.
func (c *Cluster) runComplex(home *semtree.Node, groups []*semtree.Node,
	search func(*semtree.Node) ([]uint64, semtree.QueryStats, int), online bool) ([]uint64, Result, [][]uint64) {

	var res Result
	found := make([][]uint64, len(groups))
	costs := make([]groupCost, len(groups))
	touched := 0
	for i, g := range groups {
		ids, st, vChecked := search(g)
		// A replica model's version walk happens at the group host and
		// adds the Fig. 14(b) extra latency. Version entries scale with
		// the virtual population like other probes, but each entry is a
		// compact in-memory delta ("versions only maintain changes that
		// require small storage overheads", §4.4), so it costs a
		// fraction of a full record probe; with the lazy-update
		// threshold bounding chain length this stays under ~10% of
		// query latency (§5.6).
		const versionProbeFraction = 0.25
		vLat := defaultCost.ProbeCost(int(float64(vChecked) * c.Cfg.VirtualScale * versionProbeFraction))
		res.VersionLatency += vLat
		// Member units scan their shares in parallel; the group's wall
		// time is one unit's share against that unit's resident
		// population. Decentralization is what keeps SmartStore at
		// memory speed while the centralized baselines page from disk
		// (§5.2).
		nUnits := max(st.UnitsSearched, 1)
		perUnitTotal := g.FileCount() / len(g.Leaves(nil))
		scaled := int(float64(st.RecordsScanned) * c.Cfg.VirtualScale / float64(nUnits))
		unitTotal := int(float64(perUnitTotal) * c.Cfg.VirtualScale)
		work := defaultCost.MsgHandle + defaultCost.ScanCost(scaled, unitTotal) + vLat
		costs[i] = groupCost{host: c.groupHost(g), work: work, ids: len(ids)}
		found[i] = ids
		// A group counts toward routing distance when it contributes
		// results (Fig. 8 measures the groups an operation is *served*
		// by).
		if len(ids) > 0 {
			touched++
		}
		res.UnitsSearched += st.UnitsSearched
		res.RecordsScanned += st.RecordsScanned
	}
	order, latency, messages := complexCost(defaultCost, home, costs, online)
	var out []uint64
	for _, i := range order {
		out = append(out, found[i]...)
	}
	res.Latency, res.Messages = latency, messages
	if touched > 1 {
		res.Hops = touched - 1
	}
	return out, res, found
}

// searchGroupRange searches one group's units for a range query. Under
// a replica model the answer is the group's replicated view, and the
// model reports the version entries it examined (§4.4).
func (c *Cluster) searchGroupRange(g *semtree.Node, q query.Range) ([]uint64, semtree.QueryStats, int) {
	validateGroup(g)
	ids, st := c.Tree.SearchGroupRange(g, q)
	if c.Cfg.Replicas == nil {
		return ids, st, 0
	}
	ids, examined := c.Cfg.Replicas.Filter(g, ids, q.Matches)
	return ids, st, examined
}

// searchGroupTopK searches one group's units for top-k candidates.
func (c *Cluster) searchGroupTopK(g *semtree.Node, q query.TopK) ([]uint64, semtree.QueryStats, int) {
	validateGroup(g)
	ids, st := c.Tree.SearchGroupTopK(g, q)
	if c.Cfg.Replicas == nil {
		return ids, st, 0
	}
	// Versioned candidates join the pool; rerankTopK finalizes order.
	ids, examined := c.Cfg.Replicas.Filter(g, ids, func(*metadata.File) bool { return true })
	return ids, st, examined
}

// Point answers a filename point query (§3.3.3): the home unit checks
// its local Bloom filters and routes along positive index-unit filters.
// Hit/miss accounting feeds Fig. 9.
func (c *Cluster) Point(q query.Point) ([]uint64, Result) {
	// Home's queue is empty when a point query reaches it, so which unit
	// is drawn does not enter the cost; the draw keeps HomeUnit's stream.
	c.HomeUnit()
	ids, st := c.Tree.PointQuery(q)
	if c.Cfg.Replicas != nil {
		// A replica model's walk probes records like the confirmation
		// does.
		var examined int
		ids, examined = c.Cfg.Replicas.FilterPoint(q.Filename, ids)
		st.RecordsScanned += examined
	}
	// Bloom checks are per-node index operations and do not grow with
	// the virtual population; the exact-match confirmation probes do.
	work := simnet.Time(st.BloomChecks)*defaultCost.BloomCheck +
		defaultCost.ProbeCost(int(float64(st.RecordsScanned)*c.Cfg.VirtualScale))
	var res Result
	res.Latency, res.Messages = pointCost(defaultCost, work, len(ids), st.UnitsSearched)
	res.UnitsSearched = st.UnitsSearched
	res.RecordsScanned = st.RecordsScanned
	if st.GroupsTouched > 1 {
		res.Hops = st.GroupsTouched - 1
	}
	return ids, res
}
