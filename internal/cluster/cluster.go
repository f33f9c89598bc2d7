// Package cluster deploys a semantic R-tree across a simulated storage
// cluster, implementing the distributed aspects of SmartStore: mapping
// index units onto storage units (§4.2), multi-mapping the root for
// reliability (§4.3), the on-line multicast and off-line pre-processing
// query paths (§3.3–3.4), and consistency via versioning with lazy
// replica updates (§4.4).
//
// All latencies and message counts are measured in simnet virtual time,
// reproducing the metrics of Table 4 and Figs. 8, 9, 13, 14.
package cluster

import (
	"math/rand/v2"

	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/version"
)

// Config parameterizes a deployment.
type Config struct {
	// Versioning enables the §4.4 consistency mechanism; without it,
	// queries see only the last-propagated snapshot and lose recall as
	// updates accumulate (Tables 5–6).
	Versioning bool
	// VersionRatio is the file modification-to-version ratio (§5.6);
	// 1 = comprehensive versioning. Zero selects 4.
	VersionRatio int
	// LazyUpdateThreshold is the fraction of a group's files that may
	// change before the index unit multicasts fresh replicas (§3.4,
	// §5.1 sets 5%). Zero selects 0.05.
	LazyUpdateThreshold float64
	// Cost is the virtual cost model. Zero value selects the default.
	Cost simnet.CostModel
	// Seed drives home-unit selection and index-unit mapping.
	Seed uint64
	// VirtualScale maps the in-memory sample population onto the full
	// TIF-scaled trace population: every record-count entering the cost
	// model is multiplied by it, so virtual latencies reflect e.g. the
	// 150M-file MSN×120 population while the simulation holds a tractable
	// sample (DESIGN.md §4). Zero selects 1 (no scaling).
	VirtualScale float64
}

func (c Config) withDefaults() Config {
	if c.VersionRatio == 0 {
		c.VersionRatio = 4
	}
	if c.LazyUpdateThreshold == 0 {
		c.LazyUpdateThreshold = 0.05
	}
	if c.Cost == (simnet.CostModel{}) {
		c.Cost = simnet.DefaultCostModel()
	}
	if c.VirtualScale == 0 {
		c.VirtualScale = 1
	}
	return c
}

// Cluster is a deployed SmartStore instance.
type Cluster struct {
	Tree *semtree.Tree
	Sim  *simnet.Sim
	Cfg  Config

	client   *simnet.Node
	unitNode map[*semtree.Node]*simnet.Node // leaf → its own server
	hostOf   map[*semtree.Node]*simnet.Node // index unit → hosting server
	rootRe   []*simnet.Node                 // servers holding root replicas

	// Versioning state, per first-level group.
	chains  map[*semtree.Node]*version.Chain
	pending map[*semtree.Node]map[uint64]*metadata.File // unpropagated inserts
	deleted map[*semtree.Node]map[uint64]bool           // unpropagated deletes

	// ReplicaMulticasts counts lazy-update propagation rounds.
	ReplicaMulticasts int

	// byID caches the id → file map used by top-k reranking and id
	// lookups; mutations maintain it incrementally once built.
	byID map[uint64]*metadata.File

	rng *rand.Rand
}

// fileByID returns the cached id → file index, rebuilding it after
// updates.
func (c *Cluster) fileByID() map[uint64]*metadata.File {
	if c.byID == nil {
		files := c.Tree.AllFiles()
		c.byID = make(map[uint64]*metadata.File, len(files))
		for _, f := range files {
			c.byID[f.ID] = f
		}
	}
	return c.byID
}

// FileByID returns the stored file with the given id, using the cached
// id index. Mutations keep the index current incrementally, so lookups
// stay O(1) across insert/delete churn.
func (c *Cluster) FileByID(id uint64) (*metadata.File, bool) {
	f, ok := c.fileByID()[id]
	return f, ok
}

// New deploys tree over a fresh simulated cluster: one server per
// storage unit plus a client node, index units mapped bottom-up onto
// distinct servers, root replicated into every first-level group.
func New(tree *semtree.Tree, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	leaves := tree.Leaves()
	sim := simnet.New(len(leaves)+1, cfg.Cost)

	c := &Cluster{
		Tree:     tree,
		Sim:      sim,
		Cfg:      cfg,
		client:   sim.Node(0),
		unitNode: make(map[*semtree.Node]*simnet.Node, len(leaves)),
		hostOf:   make(map[*semtree.Node]*simnet.Node),
		chains:   make(map[*semtree.Node]*version.Chain),
		pending:  make(map[*semtree.Node]map[uint64]*metadata.File),
		deleted:  make(map[*semtree.Node]map[uint64]bool),
		rng:      stats.NewRNG(cfg.Seed),
	}
	for i, l := range leaves {
		c.unitNode[l] = sim.Node(i + 1)
	}
	c.mapIndexUnits()
	c.mapRootReplicas()
	for _, g := range tree.FirstLevelIndexUnits() {
		c.chains[g] = version.NewChain(cfg.VersionRatio)
		c.pending[g] = make(map[uint64]*metadata.File)
		c.deleted[g] = make(map[uint64]bool)
	}
	return c
}

// mapIndexUnits applies the bottom-up random mapping of §4.2: each
// first-level index unit is mapped to a random unlabeled storage unit
// among its children ("randomly mapped to one of its child nodes"); each
// mapped server is labeled; higher-level index units are then "mapped to
// the remaining storage units" — any unlabeled server cluster-wide —
// level by level up to the root. Only when no unlabeled server remains
// does an index unit double up on a random descendant.
func (c *Cluster) mapIndexUnits() {
	labeled := map[*simnet.Node]bool{}
	pick := func(candidates []*simnet.Node) *simnet.Node {
		if len(candidates) == 0 {
			return nil
		}
		n := candidates[c.rng.IntN(len(candidates))]
		labeled[n] = true
		return n
	}
	idx := c.Tree.IndexUnits() // level-ascending order
	for _, iu := range idx {
		var leaves []*semtree.Node
		leaves = iu.Leaves(leaves)
		var candidates []*simnet.Node
		if iu.Level == 1 {
			// First level: choose among the unit's own children.
			for _, l := range leaves {
				if n := c.unitNode[l]; !labeled[n] {
					candidates = append(candidates, n)
				}
			}
		} else {
			// Higher levels: choose among all remaining unlabeled units.
			for _, l := range c.Tree.Leaves() {
				if n := c.unitNode[l]; !labeled[n] {
					candidates = append(candidates, n)
				}
			}
		}
		host := pick(candidates)
		if host == nil {
			// Every server labeled: double up on a random descendant.
			host = c.unitNode[leaves[c.rng.IntN(len(leaves))]]
		}
		c.hostOf[iu] = host
	}
	if c.Tree.Root.IsLeaf() {
		c.hostOf[c.Tree.Root] = c.unitNode[c.Tree.Root]
	}
}

// mapRootReplicas places one root replica in every first-level group
// (§4.3: "the root is mapped to a storage unit in each group ... so
// that the root can be found within each of the subtrees").
func (c *Cluster) mapRootReplicas() {
	c.rootRe = c.rootRe[:0]
	for _, g := range c.Tree.FirstLevelIndexUnits() {
		var leaves []*semtree.Node
		leaves = g.Leaves(leaves)
		c.rootRe = append(c.rootRe, c.unitNode[leaves[c.rng.IntN(len(leaves))]])
	}
}

// HomeUnit draws a random storage-unit leaf — the paper's "a user sends
// a query randomly to a storage unit" (§2.2).
func (c *Cluster) HomeUnit() *semtree.Node {
	leaves := c.Tree.Leaves()
	return leaves[c.rng.IntN(len(leaves))]
}

// NodeOf returns the simulated server hosting a leaf.
func (c *Cluster) NodeOf(leaf *semtree.Node) *simnet.Node { return c.unitNode[leaf] }

// HostOf returns the simulated server hosting an index unit.
func (c *Cluster) HostOf(iu *semtree.Node) *simnet.Node { return c.hostOf[iu] }

// RootReplicas returns the servers holding root replicas.
func (c *Cluster) RootReplicas() []*simnet.Node { return c.rootRe }

// Result aggregates the accounting of one operation.
type Result struct {
	Latency        simnet.Time
	Messages       int64
	Hops           int // routing distance in groups beyond the first (Fig. 8)
	UnitsSearched  int
	RecordsScanned int
	VersionChecked int // version-chain entries examined (Fig. 14b)
	VersionLatency simnet.Time
}

// GroupSize returns the number of files currently under group g.
func (c *Cluster) GroupSize(g *semtree.Node) int {
	var leaves []*semtree.Node
	leaves = g.Leaves(leaves)
	n := 0
	for _, l := range leaves {
		n += l.Unit.Len()
	}
	return n
}

// Chains exposes the per-group version chains (benches measure their
// space, Fig. 14a).
func (c *Cluster) Chains() map[*semtree.Node]*version.Chain { return c.chains }

// PendingCount returns the number of unpropagated changes in group g.
func (c *Cluster) PendingCount(g *semtree.Node) int {
	return len(c.pending[g]) + len(c.deleted[g])
}

// IndexSizeBytes returns the per-node average index footprint: the
// decentralized tree plus replica vectors and version chains, divided
// by the number of servers (Fig. 7 reports per-node space overhead).
func (c *Cluster) IndexSizeBytes() int {
	total := c.Tree.SizeBytes()
	for _, ch := range c.chains {
		total += ch.SizeBytes()
	}
	// Off-line replicas: every server stores every first-level group's
	// semantic vector + MBR (§3.4).
	groups := len(c.Tree.FirstLevelIndexUnits())
	perReplica := 8*len(c.Tree.Attrs) + 16*int(metadata.NumAttrs)
	total += groups * perReplica * len(c.Tree.Leaves())
	return total / len(c.Tree.Leaves())
}

func (c *Cluster) groupHost(g *semtree.Node) *simnet.Node {
	if h, ok := c.hostOf[g]; ok {
		return h
	}
	// Single-leaf tree: the group is the root leaf.
	return c.unitNode[g]
}

func validateGroup(g *semtree.Node) {
	if g == nil {
		panic("cluster: nil group")
	}
}
