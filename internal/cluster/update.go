package cluster

import (
	"repro/internal/metadata"
	"repro/internal/semtree"
)

// ChangeKind classifies one metadata change a Replicas model records.
type ChangeKind int

// The change kinds §4.4 labels versions with.
const (
	Insert ChangeKind = iota
	Delete
	Modify
)

// Replicas is a lazy replica model (§3.4, §4.4): it sees every change
// to a first-level group and decides what queries read of the groups'
// replicated snapshots. The paper's experiments set one; the serving
// deployment runs without, so acknowledged writes answer at once.
type Replicas interface {
	// Record notes a change to f in group g and returns the replica
	// messages it sent.
	Record(g *semtree.Node, kind ChangeKind, f *metadata.File) int64
	// Filter rewrites group g's range or top-k ids to what its replica
	// state shows; match reports whether a file it recovers answers the
	// query. It returns the ids and the version entries it examined.
	Filter(g *semtree.Node, ids []uint64, match func(*metadata.File) bool) ([]uint64, int)
	// FilterPoint rewrites a point answer for name the same way and
	// returns the ids and the entries it examined.
	FilterPoint(name string, ids []uint64) ([]uint64, int)
}

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
	res.Messages += c.recordChange(leaf, Insert, f)
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
	res.Messages += c.recordChange(leaf, Modify, existing)
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
	res.Messages += c.recordChange(leaf, Delete, target)
	return res, true
}

// recordChange hands one change under leaf to the replica model and
// returns the replica messages it sent. Without a model every change is
// visible at once and sends nothing.
func (c *Cluster) recordChange(leaf *semtree.Node, kind ChangeKind, f *metadata.File) int64 {
	if c.Cfg.Replicas == nil {
		return 0
	}
	return c.Cfg.Replicas.Record(c.Tree.GroupOf(leaf), kind, f)
}
