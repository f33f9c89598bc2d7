// Package cluster deploys a semantic R-tree across a simulated storage
// cluster, implementing the distributed aspects of SmartStore: mapping
// index units onto storage units (§4.2), multi-mapping the root for
// reliability (§4.3), the on-line multicast and off-line pre-processing
// query paths (§3.3–3.4), and — when a Replicas model is configured —
// the seams where the paper's lazy replica updates and versioning
// (§3.4, §4.4) see changes and filter answers.
//
// Every storage unit is its own server. Each operation's latency and
// message count is a closed form over its fixed message pattern and the
// simnet cost model (cost.go), reproducing the metrics of Table 4 and
// Figs. 8, 9, 13, 14.
package cluster

import (
	"math/rand/v2"

	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Config parameterizes a deployment.
type Config struct {
	// Replicas, when set, runs a lazy replica model over the
	// deployment's changes and answers (§3.4, §4.4). Nil — every serving
	// path — has none: every change is visible to the next query and
	// sends no replica messages. Only internal/core sets one.
	Replicas Replicas
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
	if c.VirtualScale == 0 {
		c.VirtualScale = 1
	}
	return c
}

// Cluster is a deployed SmartStore instance.
type Cluster struct {
	Tree *semtree.Tree
	Cfg  Config

	hostOf map[*semtree.Node]*semtree.Node // index unit → hosting leaf

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

// New deploys tree over a simulated cluster: one server per storage
// unit, index units mapped bottom-up onto distinct servers, root
// replicated into every first-level group.
func New(tree *semtree.Tree, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		Tree:   tree,
		Cfg:    cfg,
		hostOf: make(map[*semtree.Node]*semtree.Node),
		rng:    stats.NewRNG(cfg.Seed),
	}
	c.mapIndexUnits()
	for _, g := range tree.FirstLevelIndexUnits() {
		// §4.3 maps one root replica onto a random unit of each group.
		// No cost reads where; the draw fixes HomeUnit's stream, which
		// the reproduction's golden output pins.
		c.rng.IntN(len(g.Leaves(nil)))
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
	labeled := map[*semtree.Node]bool{}
	pick := func(candidates []*semtree.Node) *semtree.Node {
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
		pool := leaves // first level: choose among the unit's own children
		if iu.Level != 1 {
			pool = c.Tree.Leaves() // higher levels: any remaining unit
		}
		var candidates []*semtree.Node
		for _, l := range pool {
			if !labeled[l] {
				candidates = append(candidates, l)
			}
		}
		host := pick(candidates)
		if host == nil {
			// Every server labeled: double up on a random descendant.
			host = leaves[c.rng.IntN(len(leaves))]
		}
		c.hostOf[iu] = host
	}
}

// HomeUnit draws a random storage-unit leaf — the paper's "a user sends
// a query randomly to a storage unit" (§2.2).
func (c *Cluster) HomeUnit() *semtree.Node {
	leaves := c.Tree.Leaves()
	return leaves[c.rng.IntN(len(leaves))]
}

// Result aggregates the accounting of one operation.
type Result struct {
	Latency        simnet.Time
	Messages       int64
	Hops           int // routing distance in groups beyond the first (Fig. 8)
	UnitsSearched  int
	RecordsScanned int
	VersionLatency simnet.Time // version-chain walks' share of Latency (Fig. 14b)
}

// IndexSizeBytes returns the per-node average index footprint: the
// decentralized tree plus replica vectors, divided by the number of
// servers (Fig. 7 reports per-node space overhead).
func (c *Cluster) IndexSizeBytes() int {
	total := c.Tree.SizeBytes()
	// Off-line replicas: every server stores every first-level group's
	// semantic vector + MBR (§3.4).
	groups := len(c.Tree.FirstLevelIndexUnits())
	perReplica := 8*len(c.Tree.Attrs) + 16*int(metadata.NumAttrs)
	total += groups * perReplica * len(c.Tree.Leaves())
	return total / len(c.Tree.Leaves())
}

// groupHost returns the leaf whose server hosts group g.
func (c *Cluster) groupHost(g *semtree.Node) *semtree.Node {
	if h, ok := c.hostOf[g]; ok {
		return h
	}
	// Single-leaf tree: the group is the root leaf, its own server.
	return g
}

func validateGroup(g *semtree.Node) {
	if g == nil {
		panic("cluster: nil group")
	}
}
