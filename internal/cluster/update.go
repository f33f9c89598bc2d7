package cluster

import (
	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/version"
)

// InsertFile routes a new file's metadata into the cluster (§3.2):
// the semantic tree places it in the most-correlated storage unit, the
// group's version chain records the change, and — when the group's
// accumulated changes exceed the lazy-update threshold — the index unit
// multicasts fresh replicas to all storage units (§3.4).
//
// Until propagation, the insert is invisible to queries against the
// replicated snapshot unless versioning is enabled, which is exactly the
// staleness/recall trade-off Tables 5–6 measure.
func (c *Cluster) InsertFile(f *metadata.File) Result {
	var res Result
	if c.byID != nil {
		c.byID[f.ID] = f
	}
	leaf := c.Tree.InsertFile(f)
	g := c.Tree.GroupOf(leaf)
	c.pending[g][f.ID] = f
	c.chains[g].Record(version.Change{Kind: version.Insert, File: f})

	res.Latency, res.Messages = updateCost(c.Cfg.Cost)
	if c.shouldPropagate(g) {
		res.Messages += c.Propagate(g)
	}
	return res
}

// ModifyFile updates an existing file's attributes in place and records
// the modification in the owning group's version chain.
// The id index needs no maintenance here: the stored *File is mutated
// in place, so its pointer stays valid.
func (c *Cluster) ModifyFile(f *metadata.File) (Result, bool) {
	var res Result
	leaf, existing, ok := c.Tree.ModifyFile(f)
	if !ok {
		return res, false
	}
	g := c.Tree.GroupOf(leaf)
	c.pending[g][f.ID] = existing
	c.chains[g].Record(version.Change{Kind: version.Modify, File: existing})
	res.Latency, res.Messages = updateCost(c.Cfg.Cost)
	if c.shouldPropagate(g) {
		res.Messages += c.Propagate(g)
	}
	return res, true
}

// DeleteFile removes a file from the cluster, recording the deletion
// in the owning group's version chain. The tree refreshes the leaf's
// summaries on the root path, as it does for a modify.
func (c *Cluster) DeleteFile(id uint64) (Result, bool) {
	var res Result
	leaf, target, ok := c.Tree.DeleteFile(id)
	if !ok {
		return res, false
	}
	if c.byID != nil {
		delete(c.byID, id)
	}
	g := c.Tree.GroupOf(leaf)
	delete(c.pending[g], id)
	c.deleted[g][id] = true
	c.chains[g].Record(version.Change{Kind: version.Delete, File: target})
	res.Latency, res.Messages = updateCost(c.Cfg.Cost)
	if c.shouldPropagate(g) {
		res.Messages += c.Propagate(g)
	}
	return res, true
}

// shouldPropagate applies the lazy-update rule of §3.4: propagate when
// the group's unpropagated changes exceed the threshold fraction of its
// file population.
func (c *Cluster) shouldPropagate(g *semtree.Node) bool {
	size := c.GroupSize(g)
	if size == 0 {
		return true
	}
	changes := c.PendingCount(g)
	return float64(changes) >= c.Cfg.LazyUpdateThreshold*float64(size)
}

// Propagate applies a group's accumulated changes to the snapshot and
// multicasts fresh replicas to every storage unit (§4.4's version
// removal: apply locally, then multicast to remote replica holders). It
// returns the number of messages sent.
func (c *Cluster) Propagate(g *semtree.Node) int64 {
	c.chains[g].Compact()
	c.pending[g] = make(map[uint64]*metadata.File)
	c.deleted[g] = make(map[uint64]bool)
	c.ReplicaMulticasts++
	// Replica multicast: the group's host sends its refreshed vector +
	// MBR (and the change log) to every other storage unit.
	return int64(len(c.Tree.Leaves()) - 1)
}

// PropagateAll flushes every group (used between experiment phases to
// start from a consistent snapshot).
func (c *Cluster) PropagateAll() {
	for _, g := range c.Tree.FirstLevelIndexUnits() {
		c.Propagate(g)
	}
}
