package core

import (
	"repro/internal/cluster"
	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/version"
)

// LazyReplicas is the paper's lazy replica model (§3.4) with optional
// versioning (§4.4), the cluster.Replicas the Fig. 9, Fig. 14 and
// Table 5–6 experiments deploy. A change joins its group's pending set
// and version chain — invisible to queries against the replicated
// snapshot unless versioning is on, which is the staleness/recall
// trade-off Tables 5–6 measure — until the group's accumulated changes
// reach the threshold fraction of its population and the index unit
// multicasts fresh replicas.
type LazyReplicas struct {
	tree       *semtree.Tree
	threshold  float64
	versioning bool

	// Chains holds each first-level group's version chain (Fig. 14a
	// measures their space).
	Chains  map[*semtree.Node]*version.Chain
	pending map[*semtree.Node]map[uint64]*metadata.File // unpropagated inserts
	deleted map[*semtree.Node]map[uint64]bool           // unpropagated deletes

	multicasts int // propagation rounds
}

// newLazyReplicas returns the model opt configures over tree's
// first-level groups: LazyThreshold (> 0) and Versioning, with
// VersionRatio zero selecting 4.
func newLazyReplicas(tree *semtree.Tree, opt Options) *LazyReplicas {
	ratio := opt.VersionRatio
	if ratio == 0 {
		ratio = 4
	}
	r := &LazyReplicas{
		tree:       tree,
		threshold:  opt.LazyThreshold,
		versioning: opt.Versioning,
		Chains:     make(map[*semtree.Node]*version.Chain),
		pending:    make(map[*semtree.Node]map[uint64]*metadata.File),
		deleted:    make(map[*semtree.Node]map[uint64]bool),
	}
	for _, g := range tree.FirstLevelIndexUnits() {
		r.Chains[g] = version.NewChain(ratio)
		r.pending[g] = make(map[uint64]*metadata.File)
		r.deleted[g] = make(map[uint64]bool)
	}
	return r
}

var changeKinds = [...]version.Kind{
	cluster.Insert: version.Insert,
	cluster.Delete: version.Delete,
	cluster.Modify: version.Modify,
}

// Record implements cluster.Replicas: the change joins group g's
// pending set and version chain, and the group propagates once its
// changes reach the threshold.
func (r *LazyReplicas) Record(g *semtree.Node, kind cluster.ChangeKind, f *metadata.File) int64 {
	if kind == cluster.Delete {
		delete(r.pending[g], f.ID)
		r.deleted[g][f.ID] = true
	} else {
		r.pending[g][f.ID] = f
	}
	r.Chains[g].Record(version.Change{Kind: changeKinds[kind], File: f})
	changes, size := len(r.pending[g])+len(r.deleted[g]), g.FileCount()
	if size > 0 && float64(changes) < r.threshold*float64(size) {
		return 0
	}
	return r.propagate(g)
}

// propagate applies a group's accumulated changes to the snapshot and
// multicasts fresh replicas to every storage unit (§4.4's version
// removal: apply locally, then multicast to remote replica holders). It
// returns the number of messages sent.
func (r *LazyReplicas) propagate(g *semtree.Node) int64 {
	r.Chains[g].Compact()
	r.pending[g] = make(map[uint64]*metadata.File)
	r.deleted[g] = make(map[uint64]bool)
	r.multicasts++
	// Replica multicast: the group's host sends its refreshed vector +
	// MBR (and the change log) to every other storage unit.
	return int64(len(r.tree.Leaves()) - 1)
}

// Filter implements cluster.Replicas: it drops unpropagated files from
// the snapshot answer and, when versioning is on, walks the version
// chain backward to recover them. Nothing pending passes ids through.
func (r *LazyReplicas) Filter(g *semtree.Node, ids []uint64, match func(*metadata.File) bool) ([]uint64, int) {
	pend := r.pending[g]
	del := r.deleted[g]
	if len(pend) == 0 && len(del) == 0 {
		return ids, 0
	}
	// The propagated snapshot does not include pending inserts, and
	// still includes pending deletes.
	ids = dropPending(ids, pend)
	if !r.versioning {
		return ids, 0
	}
	seen := map[uint64]bool{}
	examined := r.Chains[g].WalkBackward(func(ch version.Change) bool {
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

// FilterPoint implements cluster.Replicas: pending inserts' names are
// not yet in the propagated index-unit filters — the staleness false
// negatives of Fig. 9 — and versioning recovers them from each group's
// chain.
func (r *LazyReplicas) FilterPoint(name string, ids []uint64) ([]uint64, int) {
	examined := 0
	for _, g := range r.tree.FirstLevelIndexUnits() {
		pend := r.pending[g]
		if len(pend) == 0 {
			continue
		}
		ids = dropPending(ids, pend)
		if r.versioning {
			examined += r.Chains[g].WalkBackward(func(ch version.Change) bool {
				if ch.Kind != version.Delete && ch.File.Path == name {
					ids = append(ids, ch.File.ID)
				}
				return true
			})
		}
	}
	return ids, examined
}

// dropPending filters the ids of pending files out of ids in place.
func dropPending(ids []uint64, pend map[uint64]*metadata.File) []uint64 {
	kept := ids[:0]
	for _, id := range ids {
		if _, isPending := pend[id]; !isPending {
			kept = append(kept, id)
		}
	}
	return kept
}
