package cluster

import (
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/simnet"
	"repro/internal/version"
)

// Message size constants (bytes) for the virtual network.
const (
	queryMsgBytes  = 256
	resultMsgBase  = 64
	resultPerID    = 16
	replicaPerSize = 256 // one group's vector + MBR snapshot
)

// RangeOnline answers a range query with the on-line multicast approach
// (§3.3.1): the client contacts a random home unit, which multicasts the
// query to every first-level index-unit host; hosts whose group MBR
// intersects forward into member units; matching units scan and reply.
func (c *Cluster) RangeOnline(q query.Range) ([]uint64, Result) {
	home := c.HomeUnit()
	groups := c.Tree.FirstLevelIndexUnits()
	return c.runComplex(home, groups, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		return c.searchGroupRange(g, q)
	}, true)
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

// SharedOfflineBudget returns the off-line group budget for a
// deployment that is one shard of a multi-shard fan-out: the
// most-correlated group plus a slowly growing sibling allowance,
// without the solo deployment's 3-group floor — the cross-shard union
// already supplies breadth, so repeating the floor on every shard would
// multiply total search work by the shard count.
func (c *Cluster) SharedOfflineBudget() int {
	n := len(c.Tree.FirstLevelIndexUnits())
	m := 1 + n/4
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
	return c.runComplex(home, targets, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		return c.searchGroupRange(g, q)
	}, false)
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
	home := c.HomeUnit()
	groups := c.Tree.FirstLevelIndexUnits()
	byGroup := map[*semtree.Node][]uint64{}
	ids, res := c.runComplex(home, groups, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		out, st, v := c.searchGroupTopK(g, q)
		byGroup[g] = out
		return out, st, v
	}, true)
	final := c.rerankTopK(ids, q)
	res.Hops = contributingHops(byGroup, final)
	return final, res
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
	byGroup := map[*semtree.Node][]uint64{}
	ids, res := c.runComplex(home, targets, func(g *semtree.Node) ([]uint64, semtree.QueryStats, int) {
		out, st, v := c.searchGroupTopK(g, q)
		byGroup[g] = out
		return out, st, v
	}, false)
	final := c.rerankTopK(ids, q)
	res.Hops = contributingHops(byGroup, final)
	return final, res
}

// contributingHops counts the groups that own at least one final result
// (the Fig. 8 "served by" metric), minus one.
func contributingHops(byGroup map[*semtree.Node][]uint64, final []uint64) int {
	in := make(map[uint64]bool, len(final))
	for _, id := range final {
		in[id] = true
	}
	contributing := 0
	for _, ids := range byGroup {
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
// arrive in simulated reply order.
func (c *Cluster) rerankTopK(ids []uint64, q query.TopK) []uint64 {
	byID := c.fileByID()
	type cand struct {
		id   uint64
		dist float64
	}
	cands := make([]cand, 0, len(ids))
	for _, id := range ids {
		if f, ok := byID[id]; ok {
			cands = append(cands, cand{id, q.Dist(c.Tree.Norm, f)})
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].dist < cands[j-1].dist ||
			(cands[j].dist == cands[j-1].dist && cands[j].id < cands[j-1].id)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	k := q.K
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out
}

// runComplex executes the shared fan-out/fan-in pattern of complex
// queries over the given candidate groups and accounts latency,
// messages and hops. online=true models the multicast identification
// phase; offline adds the local LSI fold-in cost instead.
func (c *Cluster) runComplex(home *semtree.Node, groups []*semtree.Node,
	search func(*semtree.Node) ([]uint64, semtree.QueryStats, int), online bool) ([]uint64, Result) {

	var out []uint64
	var res Result
	touched := 0

	c.Sim.ResetCounters()
	homeNode := c.unitNode[home]
	res.Latency = c.Sim.Latency(func(done func()) {
		// Client → home unit.
		c.client.Send(homeNode, queryMsgBytes, func(at *simnet.Node) {
			proceed := func() {
				pendingReplies := len(groups)
				if pendingReplies == 0 {
					done()
					return
				}
				for _, g := range groups {
					g := g
					host := c.groupHost(g)
					at.Send(host, queryMsgBytes, func(h *simnet.Node) {
						ids, st, vChecked := search(g)
						// The version walk happens at the group host and
						// adds the Fig. 14(b) extra latency. Version
						// entries scale with the virtual population like
						// other probes, but each entry is a compact
						// in-memory delta ("versions only maintain
						// changes that require small storage overheads",
						// §4.4), so it costs a fraction of a full record
						// probe; with the lazy-update threshold bounding
						// chain length this stays under ~10% of query
						// latency (§5.6).
						const versionProbeFraction = 0.25
						vLat := c.Cfg.Cost.ProbeCost(int(float64(vChecked) * c.Cfg.VirtualScale * versionProbeFraction))
						res.VersionChecked += vChecked
						res.VersionLatency += vLat
						// Member units scan their shares in parallel; the
						// group's wall time is one unit's share against
						// that unit's resident population. Decentralization
						// is what keeps SmartStore at memory speed while
						// the centralized baselines page from disk (§5.2).
						nUnits := st.UnitsSearched
						if nUnits < 1 {
							nUnits = 1
						}
						var gLeaves []*semtree.Node
						gLeaves = g.Leaves(gLeaves)
						perUnitTotal := c.GroupSize(g) / len(gLeaves)
						scaled := int(float64(st.RecordsScanned) * c.Cfg.VirtualScale / float64(nUnits))
						unitTotal := int(float64(perUnitTotal) * c.Cfg.VirtualScale)
						work := c.Cfg.Cost.MsgHandle +
							c.Cfg.Cost.ScanCost(scaled, unitTotal) + vLat
						h.Work(work, func() {
							// A group counts toward routing distance when
							// it contributes results (Fig. 8 measures the
							// groups an operation is *served* by).
							if len(ids) > 0 {
								touched++
							}
							res.UnitsSearched += st.UnitsSearched
							res.RecordsScanned += st.RecordsScanned
							out = append(out, ids...)
							h.Send(homeNode, resultMsgBase+resultPerID*len(ids), func(*simnet.Node) {
								// Reply handling serializes at the home
								// unit — the fan-in cost that makes the
								// on-line multicast slower at scale
								// (Fig. 13a).
								homeNode.Work(c.Cfg.Cost.MsgHandle, func() {
									pendingReplies--
									if pendingReplies == 0 {
										// Home → client.
										homeNode.Send(c.client, resultMsgBase+resultPerID*len(out), func(*simnet.Node) {
											done()
										})
									}
								})
							})
						})
					})
				}
			}
			if online {
				// Multicast identification costs one Bloom/MBR check per
				// group host before forwarding.
				at.Work(c.Cfg.Cost.ProbeCost(len(groups)), proceed)
			} else {
				// Off-line: LSI fold-in against local replica vectors.
				at.Work(c.Cfg.Cost.LSIFold, proceed)
			}
		})
	})
	res.Messages = c.Sim.Messages()
	if touched > 1 {
		res.Hops = touched - 1
	}
	return out, res
}

// searchGroupRange searches one group's units for a range query,
// respecting the consistency model: results reflect the propagated
// snapshot; with versioning enabled the group's version chain is walked
// backward to surface unpropagated changes (§4.4).
func (c *Cluster) searchGroupRange(g *semtree.Node, q query.Range) ([]uint64, semtree.QueryStats, int) {
	validateGroup(g)
	ids, st := c.Tree.SearchGroupRange(g, q)
	ids, examined := c.applyConsistency(g, ids, func(f *metadata.File) bool { return q.Matches(f) })
	return ids, st, examined
}

// searchGroupTopK searches one group's units for top-k candidates.
func (c *Cluster) searchGroupTopK(g *semtree.Node, q query.TopK) ([]uint64, semtree.QueryStats, int) {
	validateGroup(g)
	ids, st := c.Tree.SearchGroupTopK(g, q)
	// Versioned candidates join the pool; rerankTopK finalizes order.
	ids, examined := c.applyConsistency(g, ids, func(*metadata.File) bool { return true })
	return ids, st, examined
}

// applyConsistency filters unpropagated files out of the snapshot answer
// and, when versioning is on, walks the version chain backward to
// recover them. It returns the updated ids and the number of version
// entries examined (the Fig. 14b extra-latency driver).
func (c *Cluster) applyConsistency(g *semtree.Node, ids []uint64,
	match func(*metadata.File) bool) ([]uint64, int) {

	pend := c.pending[g]
	del := c.deleted[g]
	if len(pend) == 0 && len(del) == 0 {
		return ids, 0
	}
	// The propagated snapshot does not include pending inserts, and
	// still includes pending deletes.
	kept := ids[:0]
	for _, id := range ids {
		if _, isPending := pend[id]; isPending {
			continue
		}
		kept = append(kept, id)
	}
	ids = kept

	if !c.Cfg.Versioning {
		return ids, 0
	}
	chain := c.chains[g]
	seen := map[uint64]bool{}
	examined := chain.WalkBackward(func(ch version.Change) bool {
		if seen[ch.File.ID] {
			return true
		}
		seen[ch.File.ID] = true
		switch ch.Kind {
		case version.Insert, version.Modify:
			if match(ch.File) {
				ids = append(ids, ch.File.ID)
			}
		case version.Delete:
			for i, id := range ids {
				if id == ch.File.ID {
					ids = append(ids[:i], ids[i+1:]...)
					break
				}
			}
		}
		return true
	})
	return ids, examined
}

// Point answers a filename point query (§3.3.3): the home unit checks
// its local Bloom filters and routes along positive index-unit filters.
// Hit/miss accounting feeds Fig. 9.
func (c *Cluster) Point(q query.Point) ([]uint64, Result) {
	home := c.HomeUnit()
	var ids []uint64
	var st semtree.QueryStats
	var res Result

	c.Sim.ResetCounters()
	homeNode := c.unitNode[home]
	res.Latency = c.Sim.Latency(func(done func()) {
		c.client.Send(homeNode, queryMsgBytes, func(at *simnet.Node) {
			ids, st = c.Tree.PointQuery(q)
			// Pending files are not yet in index-unit Bloom filters; with
			// versioning the chain recovers them.
			ids = c.pointConsistency(q, ids, &st)
			// Bloom checks are per-node index operations and do not grow
			// with the virtual population; the exact-match confirmation
			// probes do.
			work := simnet.Time(st.BloomChecks)*c.Cfg.Cost.BloomCheck +
				c.Cfg.Cost.ProbeCost(int(float64(st.RecordsScanned)*c.Cfg.VirtualScale))
			at.Work(work, func() {
				// Forward to each unit that reported a positive (modelled
				// as one message round to the farthest).
				extra := st.UnitsSearched
				if extra < 1 {
					extra = 1
				}
				at.Send(homeNode, resultMsgBase+resultPerID*len(ids), func(*simnet.Node) {
					homeNode.Send(c.client, resultMsgBase+resultPerID*len(ids), func(*simnet.Node) {
						done()
					})
				})
				res.Messages += int64(extra)
			})
		})
	})
	res.Messages += c.Sim.Messages()
	res.UnitsSearched = st.UnitsSearched
	res.RecordsScanned = st.RecordsScanned
	if st.GroupsTouched > 1 {
		res.Hops = st.GroupsTouched - 1
	}
	return ids, res
}

func (c *Cluster) pointConsistency(q query.Point, ids []uint64, st *semtree.QueryStats) []uint64 {
	// Drop pending inserts (their names are not yet in propagated
	// index-unit filters — modelling staleness false negatives), then
	// recover via versions when enabled.
	for _, g := range c.Tree.FirstLevelIndexUnits() {
		pend := c.pending[g]
		if len(pend) == 0 {
			continue
		}
		kept := ids[:0]
		for _, id := range ids {
			if _, isPending := pend[id]; isPending {
				continue
			}
			kept = append(kept, id)
		}
		ids = kept
		if c.Cfg.Versioning {
			examined := c.chains[g].WalkBackward(func(ch version.Change) bool {
				if ch.Kind != version.Delete && ch.File.Path == q.Filename {
					ids = append(ids, ch.File.ID)
				}
				return true
			})
			st.RecordsScanned += examined
		}
	}
	return ids
}
