package semtree

import (
	"fmt"
	"math"

	"repro/internal/metadata"
)

// Config parameterizes semantic R-tree construction.
type Config struct {
	// Attrs is the grouping predicate: the d-attribute subset whose
	// correlations drive grouping (§3.1.1). Nil selects all D attributes.
	Attrs []metadata.Attr
	// BaseThreshold is the level-1 admission threshold ε₁ ∈ [0,1].
	// Zero selects sampling analysis at DefaultThresholdQuantile.
	BaseThreshold float64
	// MaxChildren (M) and MinChildren (m) bound node fan-out (§4.1,
	// m ≤ M/2). Zero selects 10 and 2.
	MaxChildren int
	MinChildren int
}

func (c Config) withDefaults() Config {
	if c.Attrs == nil {
		c.Attrs = metadata.AllAttrs()
	}
	if c.MaxChildren == 0 {
		c.MaxChildren = 10
	}
	if c.MinChildren == 0 {
		c.MinChildren = 2
	}
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	return c
}

// Validate reports whether the configuration can build a tree: the
// fan-out bounds, after applying defaults, must satisfy 2 ≤ m ≤ M/2
// (§4.1), and the admission threshold must lie in [0, 1]. Callers that
// accept configuration across a trust boundary (the daemon's flags, the
// root package's Build/Load) check this and return the error instead of
// letting Build panic.
func (c Config) Validate() error {
	m, M := c.MinChildren, c.MaxChildren
	if M == 0 {
		M = 10
	}
	if m == 0 {
		m = 2
	}
	if m < 0 || M < 0 {
		return fmt.Errorf("semtree: negative fan-out m=%d M=%d", c.MinChildren, c.MaxChildren)
	}
	if m < 2 || m > M/2 {
		return fmt.Errorf("semtree: invalid fan-out m=%d M=%d (need 2 ≤ m ≤ M/2)", m, M)
	}
	if c.BaseThreshold < 0 || c.BaseThreshold > 1 {
		return fmt.Errorf("semtree: admission threshold %g outside [0,1]", c.BaseThreshold)
	}
	return nil
}

// Tree is one semantic R-tree over a set of storage units.
type Tree struct {
	Root   *Node
	Norm   *metadata.Normalizer
	Attrs  []metadata.Attr
	Config Config

	// Thresholds[i] is the admission threshold ε_{i+1} used while
	// aggregating level i nodes into level i+1 parents.
	Thresholds []float64

	leaves  []*Node
	nodeSeq int
}

// Build constructs a semantic R-tree bottom-up over the given storage
// units (§3.1.2): leaves are wrapped into nodes, then recursively
// aggregated into index units under per-level LSI admission thresholds
// until a single root remains.
func Build(units []*StorageUnit, norm *metadata.Normalizer, cfg Config) *Tree {
	if len(units) == 0 {
		panic("semtree: cannot build over zero storage units")
	}
	cfg = cfg.withDefaults()
	t := &Tree{Norm: norm, Attrs: cfg.Attrs, Config: cfg}

	level := make([]*Node, len(units))
	for i, u := range units {
		n := &Node{ID: t.nextID(), Level: 0, Unit: u}
		n.refresh(norm, cfg.Attrs)
		level[i] = n
	}
	t.leaves = append([]*Node(nil), level...)

	base := cfg.BaseThreshold
	if base == 0 {
		vectors := make([][]float64, len(level))
		for i, n := range level {
			vectors[i] = n.Vector
		}
		base = SampleThreshold(vectors, DefaultThresholdQuantile)
	}

	depth := 1
	for len(level) > 1 {
		eps := levelThreshold(base, depth)
		t.Thresholds = append(t.Thresholds, eps)
		groups := groupOnce(level, eps, cfg.MaxChildren)
		next := make([]*Node, len(groups))
		for g, members := range groups {
			parent := &Node{ID: t.nextID(), Level: depth, Children: members}
			for _, m := range members {
				m.Parent = parent
			}
			parent.refresh(norm, cfg.Attrs)
			next[g] = parent
		}
		level = next
		depth++
	}
	t.Root = level[0]
	return t
}

func (t *Tree) nextID() int {
	t.nodeSeq++
	return t.nodeSeq
}

// Leaves returns the storage-unit nodes in construction order.
func (t *Tree) Leaves() []*Node { return t.leaves }

// Units returns the storage units in construction order.
func (t *Tree) Units() []*StorageUnit {
	out := make([]*StorageUnit, len(t.leaves))
	for i, n := range t.leaves {
		out[i] = n.Unit
	}
	return out
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.Root.height() }

// CountNodes returns (storage units, index units) — the NO(I) statistic
// the automatic-configuration heuristic compares (§2.4).
func (t *Tree) CountNodes() (storage, index int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			storage++
			return
		}
		index++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return storage, index
}

// IndexUnits returns all non-leaf nodes, level-1 first.
func (t *Tree) IndexUnits() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	// Order by level ascending so first-level units come first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Level < out[j-1].Level; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FirstLevelIndexUnits returns the level-1 index units — the semantic
// groups whose vectors are replicated in off-line pre-processing (§3.4).
func (t *Tree) FirstLevelIndexUnits() []*Node {
	var out []*Node
	for _, n := range t.IndexUnits() {
		if n.Level == 1 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		// Single-leaf tree: the root doubles as the only group.
		out = append(out, t.Root)
	}
	return out
}

// GroupOf returns the first-level group a leaf belongs to.
func (t *Tree) GroupOf(leaf *Node) *Node { return leaf.firstLevelAncestor() }

// TotalFiles returns the number of files across all storage units.
func (t *Tree) TotalFiles() int {
	n := 0
	for _, l := range t.leaves {
		n += l.Unit.Len()
	}
	return n
}

// SizeBytes estimates the index memory footprint of the whole tree for
// Fig. 7: per-node MBR + Bloom filter + vector, and per-unit map
// overhead. Decentralized deployment divides this across units.
func (t *Tree) SizeBytes() int {
	size := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		size += 16*int(metadata.NumAttrs) + 8*len(n.Vector) + 48
		if n.Filter != nil {
			size += n.Filter.SizeBytes()
		}
		if n.IsLeaf() {
			size += n.Unit.SizeBytes()
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return size
}

// bestGroup returns the group most semantically correlated with v under
// the §1.1 correlation measure: minimum Euclidean distance to the group
// centroid in the normalized attribute subspace. (Cosine similarity is
// used between *grouping pairs* during construction; for locating the
// group closest to a request vector, distance to the centroid is the
// measure the objective Σ (fj − Ci)² minimizes.)
func (t *Tree) bestGroup(groups []*Node, v []float64) *Node {
	best := groups[0]
	bestDist := math.Inf(1)
	for _, g := range groups {
		var d float64
		for i := range v {
			if i < len(g.Vector) {
				x := v[i] - g.Vector[i]
				d += x * x
			}
		}
		if d < bestDist {
			best, bestDist = g, d
		}
	}
	return best
}

// InsertFile routes a file to the storage unit whose centroid is
// closest in the normalized attribute subspace at every tree level,
// then updates summaries on the root path. It returns the chosen leaf.
func (t *Tree) InsertFile(f *metadata.File) *Node {
	v := t.Norm.Vector(f, t.Attrs)
	cur := t.Root
	for !cur.IsLeaf() {
		cur = t.bestGroup(cur.Children, v)
	}
	cur.Unit.AddFile(f)
	cur.refreshUp(t.Norm, t.Attrs)
	return cur
}

// ModifyFile replaces a stored file's attributes in place and refreshes
// the owning unit's MBR plus the summaries on the root path. The path
// refresh is not optional: attributes moving outside the old MBR would
// otherwise leave the file invisible to range and top-k descent, which
// prune subtrees by MBR. It returns the stored record and its leaf.
func (t *Tree) ModifyFile(f *metadata.File) (*Node, *metadata.File, bool) {
	for _, leaf := range t.leaves {
		for _, existing := range leaf.Unit.Files {
			if existing.ID != f.ID {
				continue
			}
			existing.Attrs = f.Attrs
			leaf.Unit.recomputeMBR()
			leaf.refreshUp(t.Norm, t.Attrs)
			return leaf, existing, true
		}
	}
	return nil, nil, false
}

// DeleteFile removes the file with the given id from the unit that
// holds it and, like ModifyFile, refreshes the unit's summaries on the
// root path. It returns the removed record and its leaf.
func (t *Tree) DeleteFile(id uint64) (*Node, *metadata.File, bool) {
	for _, leaf := range t.leaves {
		if f := leaf.Unit.RemoveFile(id); f != nil {
			leaf.refreshUp(t.Norm, t.Attrs)
			return leaf, f, true
		}
	}
	return nil, nil, false
}

// Validate checks the structural invariants of the tree: parent/child
// linkage, level monotonicity, MBR containment, Bloom-filter union
// coverage, and fan-out bounds. It returns the first violation found.
// Tests and failure-injection harnesses call this after mutations.
func (t *Tree) Validate() error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsLeaf() {
			if n.Unit == nil {
				return fmt.Errorf("leaf node %d has no storage unit", n.ID)
			}
			return nil
		}
		if len(n.Children) == 0 {
			return fmt.Errorf("index unit %d has no children", n.ID)
		}
		if len(n.Children) > t.Config.MaxChildren {
			return fmt.Errorf("index unit %d has %d children > M=%d", n.ID, len(n.Children), t.Config.MaxChildren)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("child %d of node %d has wrong parent link", c.ID, n.ID)
			}
			if c.Level >= n.Level {
				return fmt.Errorf("child %d level %d not below parent %d level %d", c.ID, c.Level, n.ID, n.Level)
			}
			if c.HasMBR && n.HasMBR && !n.MBR.Contains(c.MBR) {
				return fmt.Errorf("node %d MBR does not contain child %d MBR", n.ID, c.ID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root)
}
