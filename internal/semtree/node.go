package semtree

import (
	"repro/internal/bloom"
	"repro/internal/metadata"
	"repro/internal/rtree"
)

// Node is one semantic R-tree node. Leaves wrap a StorageUnit; internal
// nodes are the index units of §2.3, each summarizing its children with
// an MBR (for complex queries), a unioned Bloom filter (for point
// queries, Fig. 4) and a centroid semantic vector (for LSI routing).
type Node struct {
	ID       int
	Level    int // 0 = leaf (storage unit)
	Unit     *StorageUnit
	Children []*Node
	Parent   *Node

	MBR    rtree.Rect
	HasMBR bool
	Filter *bloom.Filter
	Vector []float64
}

// IsLeaf reports whether the node is a storage unit.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// Leaves appends all storage-unit descendants of n to dst.
func (n *Node) Leaves(dst []*Node) []*Node {
	if n.IsLeaf() {
		return append(dst, n)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// FileCount returns the number of files in the storage units under n,
// walking the subtree without collecting its leaves.
func (n *Node) FileCount() int {
	if n.IsLeaf() {
		return n.Unit.Len()
	}
	total := 0
	for _, c := range n.Children {
		total += c.FileCount()
	}
	return total
}

// refresh recomputes the node's summaries from its children (or unit):
// MBR union, Bloom union, and centroid vector. It does not recurse.
func (n *Node) refresh(norm *metadata.Normalizer, attrs []metadata.Attr) {
	if n.IsLeaf() {
		n.MBR, n.HasMBR = n.Unit.MBR()
		n.Filter = n.Unit.Filter().Clone()
		n.Vector = n.Unit.Vector(norm, attrs)
		return
	}
	n.Filter = bloom.NewDefault()
	n.HasMBR = false
	n.Vector = make([]float64, len(attrs))
	live := 0
	for _, c := range n.Children {
		n.Filter.Union(c.Filter)
		if c.HasMBR {
			if !n.HasMBR {
				n.MBR = c.MBR.Clone()
				n.HasMBR = true
			} else {
				n.MBR.Expand(c.MBR)
			}
		}
		for i := range n.Vector {
			n.Vector[i] += c.Vector[i]
		}
		live++
	}
	if live > 0 {
		inv := 1 / float64(live)
		for i := range n.Vector {
			n.Vector[i] *= inv
		}
	}
}

// refreshUp refreshes n and every ancestor up to the root.
func (n *Node) refreshUp(norm *metadata.Normalizer, attrs []metadata.Attr) {
	for cur := n; cur != nil; cur = cur.Parent {
		cur.refresh(norm, attrs)
	}
}

// height returns the height of the subtree rooted at n (leaf = 1).
func (n *Node) height() int {
	if n.IsLeaf() {
		return 1
	}
	best := 0
	for _, c := range n.Children {
		if h := c.height(); h > best {
			best = h
		}
	}
	return best + 1
}

// firstLevelAncestor returns the level-1 index unit above the leaf (the
// node whose replica vectors are distributed in off-line pre-processing,
// §3.4), or the node itself when the tree is a single level.
func (n *Node) firstLevelAncestor() *Node {
	cur := n
	for cur.Parent != nil && cur.Level < 1 {
		cur = cur.Parent
	}
	return cur
}
