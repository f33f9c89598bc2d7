package rtree

import (
	"container/heap"
	"fmt"
	"math"
)

// Default fan-out bounds. Guttman's constraint m ≤ M/2 is preserved by
// the constructor (§4.1: "m and M can be defined as m ≤ M/2").
const (
	DefaultMax = 16
	DefaultMin = 4
)

// Tree is an R-tree over uint64-identified rectangles.
type Tree struct {
	root    *rnode
	min     int // m: min entries per node (except root)
	max     int // M: max entries per node
	dims    int
	size    int
	visited int // nodes touched by the most recent search, for cost models
}

type entry struct {
	rect  Rect
	child *rnode // nil for leaf entries
	id    uint64 // valid for leaf entries
}

type rnode struct {
	leaf    bool
	entries []entry
}

// New returns an empty R-tree for dims-dimensional data with fan-out
// bounds [min, max]. It panics unless 2 ≤ min ≤ max/2 and dims ≥ 1.
func New(dims, min, max int) *Tree {
	if dims < 1 {
		panic(fmt.Sprintf("rtree: invalid dims %d", dims))
	}
	if min < 2 || min > max/2 {
		panic(fmt.Sprintf("rtree: invalid fan-out m=%d M=%d (need 2 ≤ m ≤ M/2)", min, max))
	}
	return &Tree{
		root: &rnode{leaf: true},
		min:  min, max: max, dims: dims,
	}
}

// NewDefault returns an empty tree with DefaultMin/DefaultMax fan-out.
func NewDefault(dims int) *Tree { return New(dims, DefaultMin, DefaultMax) }

// LastVisited returns the number of nodes touched by the most recent
// Search/NearestKDims call; the baselines use it to model I/O cost.
func (t *Tree) LastVisited() int { return t.visited }

// Insert adds an item with the given rectangle.
func (t *Tree) Insert(id uint64, r Rect) {
	if r.Dims() != t.dims {
		panic(fmt.Sprintf("rtree: rect dims %d != tree dims %d", r.Dims(), t.dims))
	}
	e := entry{rect: r.Clone(), id: id}
	split := t.insert(t.root, e, 1)
	if split != nil {
		old := t.root
		t.root = &rnode{
			leaf: false,
			entries: []entry{
				{rect: old.mbr(), child: old},
				{rect: split.mbr(), child: split},
			},
		}
	}
	t.size++
}

func (t *Tree) insert(n *rnode, e entry, level int) *rnode {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.max {
			return t.splitNode(n)
		}
		return nil
	}
	i := t.chooseSubtree(n, e.rect)
	split := t.insert(n.entries[i].child, e, level+1)
	n.entries[i].rect = n.entries[i].child.mbr()
	if split != nil {
		n.entries = append(n.entries, entry{rect: split.mbr(), child: split})
		if len(n.entries) > t.max {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose MBR needs least enlargement
// (ties → smaller area), per Guttman's ChooseLeaf.
func (t *Tree) chooseSubtree(n *rnode, r Rect) int {
	best := 0
	bestEnl := n.entries[0].rect.Enlargement(r)
	bestArea := n.entries[0].rect.Area()
	for i := 1; i < len(n.entries); i++ {
		enl := n.entries[i].rect.Enlargement(r)
		area := n.entries[i].rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split, moving roughly half of
// n's entries into a returned new sibling.
func (t *Tree) splitNode(n *rnode) *rnode {
	entries := n.entries
	// PickSeeds: the pair wasting the most area together.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].rect.Union(entries[j].rect)
			waste := u.Area() - entries[i].rect.Area() - entries[j].rect.Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	r1 := entries[s1].rect.Clone()
	r2 := entries[s2].rect.Clone()

	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// If one group must take everything to reach the minimum, do so.
		need1 := t.min - len(g1)
		need2 := t.min - len(g2)
		if need1 >= len(rest) {
			g1 = append(g1, rest...)
			for _, e := range rest {
				r1.Expand(e.rect)
			}
			break
		}
		if need2 >= len(rest) {
			g2 = append(g2, rest...)
			for _, e := range rest {
				r2.Expand(e.rect)
			}
			break
		}
		// PickNext: entry with the greatest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := r1.Enlargement(e.rect)
			d2 := r2.Enlargement(e.rect)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := r1.Enlargement(e.rect)
		d2 := r2.Enlargement(e.rect)
		if d1 < d2 || (d1 == d2 && r1.Area() < r2.Area()) ||
			(d1 == d2 && r1.Area() == r2.Area() && len(g1) < len(g2)) {
			g1 = append(g1, e)
			r1.Expand(e.rect)
		} else {
			g2 = append(g2, e)
			r2.Expand(e.rect)
		}
	}

	n.entries = g1
	return &rnode{leaf: n.leaf, entries: g2}
}

func (n *rnode) mbr() Rect {
	r := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		r.Expand(e.rect)
	}
	return r
}

// Search appends to dst the ids of all items whose rectangles intersect
// q, returning the result.
func (t *Tree) Search(dst []uint64, q Rect) []uint64 {
	t.visited = 0
	if t.size == 0 {
		return dst
	}
	return t.search(t.root, q, dst)
}

func (t *Tree) search(n *rnode, q Rect, dst []uint64) []uint64 {
	t.visited++
	for _, e := range n.entries {
		if !e.rect.Intersects(q) {
			continue
		}
		if n.leaf {
			dst = append(dst, e.id)
		} else {
			dst = t.search(e.child, q, dst)
		}
	}
	return dst
}

// Neighbor is one k-NN result: an item id and its distance from the
// query point.
type Neighbor struct {
	ID   uint64
	Dist float64
}

// NearestKDims returns the k items nearest to point p in ascending
// distance order, using best-first branch-and-bound over node MinDists.
// The MaxD pruning of §3.3.2 corresponds to the bound maintained by the
// priority queue: a node is never expanded once its MinDist exceeds the
// current k-th best distance.
//
// Distance is restricted to the given dimension indices (nil = all
// dimensions). That lets callers run k-NN over a query-attribute
// subspace of a higher-dimensional index — the situation of a
// multi-dimensional metadata index answering a top-k query that names
// only some attributes.
func (t *Tree) NearestKDims(p []float64, k int, dims []int) []Neighbor {
	t.visited = 0
	if k <= 0 || t.size == 0 {
		return nil
	}
	minDist := func(r Rect, q []float64) float64 {
		if dims == nil {
			return r.MinDist(q)
		}
		var s float64
		for _, i := range dims {
			var d float64
			switch {
			case q[i] < r.Lo[i]:
				d = r.Lo[i] - q[i]
			case q[i] > r.Hi[i]:
				d = q[i] - r.Hi[i]
			}
			s += d * d
		}
		return math.Sqrt(s)
	}
	pq := &minHeap{}
	heap.Init(pq)
	heap.Push(pq, heapItem{node: t.root, dist: minDist(t.root.mbr(), p)})

	var out []Neighbor
	maxD := -1.0 // the paper's MaxD: distance of the current k-th result
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if len(out) == k && it.dist > maxD {
			break
		}
		if it.node == nil {
			// Leaf entry surfaced in distance order: a confirmed result.
			if len(out) < k {
				out = append(out, Neighbor{ID: it.id, Dist: it.dist})
				if len(out) == k {
					maxD = out[k-1].Dist
				}
			}
			continue
		}
		t.visited++
		for _, e := range it.node.entries {
			d := minDist(e.rect, p)
			if len(out) == k && d > maxD {
				continue
			}
			if it.node.leaf {
				heap.Push(pq, heapItem{id: e.id, dist: d})
			} else {
				heap.Push(pq, heapItem{node: e.child, dist: d})
			}
		}
	}
	return out
}

// SizeBytes estimates the in-memory footprint for Fig. 7 space
// accounting: 16·dims bytes per stored rectangle plus entry and node
// overhead.
func (t *Tree) SizeBytes() int {
	size := 0
	var walk func(n *rnode)
	walk = func(n *rnode) {
		size += 24 // node header
		for _, e := range n.entries {
			size += 16*t.dims + 16 // rect bounds + id/child pointer
			if e.child != nil {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return size
}

// heapItem is either a node (child != nil) or a confirmed leaf entry.
type heapItem struct {
	node *rnode
	id   uint64
	dist float64
}

type minHeap []heapItem

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
