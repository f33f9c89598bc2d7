package cluster

import (
	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/version"
)

// InsertFile routes a new file's metadata into the cluster (§3.2):
// the semantic tree places it in the most-correlated storage unit and
// the owning group records the change (recordChange).
func (c *Cluster) InsertFile(f *metadata.File) Result {
	var res Result
	if c.byID != nil {
		c.byID[f.ID] = f
	}
	leaf := c.Tree.InsertFile(f)
	res.Latency, res.Messages = updateCost(defaultCost)
	res.Messages += c.recordChange(c.Tree.GroupOf(leaf), version.Insert, f)
	return res
}

// ModifyFile updates an existing file's attributes in place and records
// the modification in the owning group.
// The id index needs no maintenance here: the stored *File is mutated
// in place, so its pointer stays valid.
func (c *Cluster) ModifyFile(f *metadata.File) (Result, bool) {
	var res Result
	leaf, existing, ok := c.Tree.ModifyFile(f)
	if !ok {
		return res, false
	}
	res.Latency, res.Messages = updateCost(defaultCost)
	res.Messages += c.recordChange(c.Tree.GroupOf(leaf), version.Modify, existing)
	return res, true
}

// DeleteFile removes a file from the cluster and records the deletion
// in the owning group. The tree refreshes the leaf's summaries on the
// root path, as it does for a modify.
func (c *Cluster) DeleteFile(id uint64) (Result, bool) {
	var res Result
	leaf, target, ok := c.Tree.DeleteFile(id)
	if !ok {
		return res, false
	}
	if c.byID != nil {
		delete(c.byID, id)
	}
	res.Latency, res.Messages = updateCost(defaultCost)
	res.Messages += c.recordChange(c.Tree.GroupOf(leaf), version.Delete, target)
	return res, true
}

// recordChange applies the lazy replica model of §3.4/§4.4 to one
// change in group g and returns the replica messages it sent. Without a
// lazy-update threshold every change is visible at once and sends
// nothing. With one, the change joins the group's pending set and
// version chain — invisible to queries against the replicated snapshot
// unless versioning is enabled, which is the staleness/recall trade-off
// Tables 5–6 measure — until the group's accumulated changes reach the
// threshold fraction of its population and the index unit multicasts
// fresh replicas.
func (c *Cluster) recordChange(g *semtree.Node, kind version.Kind, f *metadata.File) int64 {
	if c.pending == nil {
		return 0
	}
	if kind == version.Delete {
		delete(c.pending[g], f.ID)
		c.deleted[g][f.ID] = true
	} else {
		c.pending[g][f.ID] = f
	}
	c.chains[g].Record(version.Change{Kind: kind, File: f})
	changes, size := len(c.pending[g])+len(c.deleted[g]), c.GroupSize(g)
	if size > 0 && float64(changes) < c.Cfg.LazyUpdateThreshold*float64(size) {
		return 0
	}
	return c.propagate(g)
}

// propagate applies a group's accumulated changes to the snapshot and
// multicasts fresh replicas to every storage unit (§4.4's version
// removal: apply locally, then multicast to remote replica holders). It
// returns the number of messages sent.
func (c *Cluster) propagate(g *semtree.Node) int64 {
	c.chains[g].Compact()
	c.pending[g] = make(map[uint64]*metadata.File)
	c.deleted[g] = make(map[uint64]bool)
	c.ReplicaMulticasts++
	// Replica multicast: the group's host sends its refreshed vector +
	// MBR (and the change log) to every other storage unit.
	return int64(len(c.Tree.Leaves()) - 1)
}
