// Package baseline implements the two comparison systems of §5.1:
//
//   - DBMS: "a popular database approach that uses a B+ tree to index
//     each metadata attribute ... does not take into account database
//     optimization". Point queries scan the flat pathname column (§6.3:
//     "DBMS considers file pathnames as a flat string attribute"),
//     range queries intersect per-attribute B+-tree range scans, and
//     top-k queries fall back to a brute-force distance scan, since a
//     one-dimensional index per attribute cannot answer nearest-
//     neighbour questions directly.
//
//   - RTree: "a simple, non-semantic R-tree-based database approach
//     that organizes each file based on its multi-dimensional
//     attributes without leveraging metadata semantics" — a single
//     centralized Guttman R-tree.
//
// Both are centralized: the whole population lives on one server, so
// once the virtual population exceeds that server's memory the cost
// model pages from disk. SmartStore's decentralized semantic groups
// avoid precisely this, which is where the ~1000× latency gap of
// Table 4 comes from.
package baseline

import (
	"crypto/md5"
	"encoding/binary"
	"sort"

	"repro/internal/btree"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/simnet"
)

// Result carries a baseline operation's cost accounting.
type Result struct {
	Latency         simnet.Time
	RecordsExamined int64 // virtual records touched
}

// Config parameterizes a baseline build.
type Config struct {
	// Cost is the virtual cost model (zero value → default).
	Cost simnet.CostModel
	// VirtualScale maps sample record counts onto the full TIF-scaled
	// population, exactly as in cluster.Config (zero → 1).
	VirtualScale float64
}

func (c Config) withDefaults() Config {
	if c.Cost == (simnet.CostModel{}) {
		c.Cost = simnet.DefaultCostModel()
	}
	if c.VirtualScale == 0 {
		c.VirtualScale = 1
	}
	return c
}

// scale converts sample record counts to virtual counts.
func (c Config) scale(n int) int { return int(float64(n) * c.VirtualScale) }

// topKDistanceCostFactor models the extra per-record arithmetic of a
// distance computation versus a plain comparison during brute-force
// top-k scans.
const topKDistanceCostFactor = 3

// DBMS is the per-attribute B+-tree baseline.
type DBMS struct {
	cfg     Config
	files   []*metadata.File
	byID    map[uint64]*metadata.File
	norm    *metadata.Normalizer
	indexes [metadata.NumAttrs]*btree.Tree
	total   int // virtual population
}

// NewDBMS bulk-builds the per-attribute indexes over the corpus.
func NewDBMS(files []*metadata.File, norm *metadata.Normalizer, cfg Config) *DBMS {
	cfg = cfg.withDefaults()
	d := &DBMS{
		cfg:   cfg,
		files: files,
		byID:  make(map[uint64]*metadata.File, len(files)),
		norm:  norm,
		total: cfg.scale(len(files)),
	}
	for a := range d.indexes {
		d.indexes[a] = btree.NewDefault()
	}
	for _, f := range files {
		d.byID[f.ID] = f
		for a := 0; a < int(metadata.NumAttrs); a++ {
			d.indexes[a].Insert(f.Attrs[a], f.ID)
		}
	}
	return d
}

// Point scans the flat pathname column: without a string index (the
// unoptimized configuration of §5.1) every record is compared until the
// match; expected cost is half the column when present.
func (d *DBMS) Point(q query.Point) ([]uint64, Result) {
	var out []uint64
	examined := 0
	for _, f := range d.files {
		examined++
		if f.Path == q.Filename {
			out = append(out, f.ID)
			break
		}
	}
	vExamined := d.cfg.scale(examined)
	return out, Result{
		Latency:         d.cfg.Cost.ScanCost(vExamined, d.total),
		RecordsExamined: int64(vExamined),
	}
}

// Range runs one B+-tree range scan per queried attribute and
// intersects the resulting id sets — "DBMS must check each B+-tree
// index for each attribute".
func (d *DBMS) Range(q query.Range) ([]uint64, Result) {
	examined := 0
	var lists [][]uint64
	for i, a := range q.Attrs {
		ids, visited := d.indexes[a].Range(nil, q.Lo[i], q.Hi[i])
		examined += visited + len(ids)
		lists = append(lists, ids)
	}
	// Intersection: count each posting-list element touched.
	counts := map[uint64]int{}
	for _, l := range lists {
		examined += len(l)
		for _, id := range l {
			counts[id]++
		}
	}
	var out []uint64
	for id, c := range counts {
		if c == len(lists) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	vExamined := d.cfg.scale(examined)
	return out, Result{
		Latency:         d.cfg.Cost.ScanCost(vExamined, d.total),
		RecordsExamined: int64(vExamined),
	}
}

// TopK cannot be answered from one-dimensional indexes: the DBMS falls
// back to a full-table scan computing the distance of every record.
func (d *DBMS) TopK(q query.TopK) ([]uint64, Result) {
	out := query.TopKTruth(d.files, d.norm, q)
	vExamined := d.cfg.scale(len(d.files) * topKDistanceCostFactor)
	return out, Result{
		Latency:         d.cfg.Cost.ScanCost(vExamined, d.total),
		RecordsExamined: int64(vExamined),
	}
}

// SizeBytes reports the total index footprint: one B+-tree per
// attribute — "DBMS has a large storage overhead" (Fig. 7).
func (d *DBMS) SizeBytes() int {
	size := 0
	for a := range d.indexes {
		size += d.indexes[a].SizeBytes()
	}
	return size
}

// RTree is the centralized non-semantic R-tree baseline. Filename point
// queries go through a companion B+-tree keyed by pathname hash (an
// R-tree cannot exact-match an attribute uncorrelated with its spatial
// organization); complex queries use the R-tree itself.
type RTree struct {
	cfg   Config
	tree  *rtree.Tree
	names *btree.Tree
	byID  map[uint64]*metadata.File
	norm  *metadata.Normalizer
	total int
}

// NewRTree bulk-loads a single R-tree over the full *normalized*
// attribute space (Guttman splits need commensurate dimensions), with
// an extra pathname-hash dimension so filename point queries map to
// degenerate rectangle searches.
func NewRTree(files []*metadata.File, norm *metadata.Normalizer, cfg Config) *RTree {
	cfg = cfg.withDefaults()
	r := &RTree{
		cfg:   cfg,
		tree:  rtree.NewDefault(int(metadata.NumAttrs) + 1),
		names: btree.NewDefault(),
		byID:  make(map[uint64]*metadata.File, len(files)),
		norm:  norm,
		total: cfg.scale(len(files)),
	}
	for _, f := range files {
		r.byID[f.ID] = f
		r.tree.Insert(f.ID, rtree.PointRect(r.point(f)))
		r.names.Insert(pathHash(f.Path), f.ID)
	}
	return r
}

// point embeds a file in the (D+1)-dimensional normalized index space:
// its D normalized attributes plus a pathname hash in [0,1].
func (r *RTree) point(f *metadata.File) []float64 {
	p := make([]float64, metadata.NumAttrs+1)
	for a := 0; a < int(metadata.NumAttrs); a++ {
		p[a] = r.norm.Value(metadata.Attr(a), f.Attrs[a])
	}
	p[metadata.NumAttrs] = pathHash(f.Path)
	return p
}

// liftRange embeds a range query in the (D+1)-dim normalized space.
func (r *RTree) liftRange(q query.Range) rtree.Rect {
	lo := make([]float64, metadata.NumAttrs+1)
	hi := make([]float64, metadata.NumAttrs+1)
	for a := 0; a <= int(metadata.NumAttrs); a++ {
		lo[a], hi[a] = -0.5, 1.5 // unbounded within normalized space
	}
	for i, a := range q.Attrs {
		lo[a] = r.norm.Value(a, q.Lo[i])
		hi[a] = r.norm.Value(a, q.Hi[i])
	}
	return rtree.Rect{Lo: lo, Hi: hi}
}

// Point looks the name up in the companion hash index. The descent costs
// one random disk page per B+-tree level once the population exceeds
// memory; candidates are then confirmed against the full pathname.
func (r *RTree) Point(q query.Point) ([]uint64, Result) {
	h := pathHash(q.Filename)
	cands := r.names.Get(h)
	var out []uint64
	for _, id := range cands {
		if r.byID[id].Path == q.Filename {
			out = append(out, id)
		}
	}
	// Virtual descent depth grows with the virtual population.
	virtualHeight := 1
	for n := float64(r.total); n > float64(btree.DefaultOrder); n /= btree.DefaultOrder {
		virtualHeight++
	}
	lat := simnet.Time(0)
	if r.total > r.cfg.Cost.MemCapacity {
		lat += simnet.Time(virtualHeight) * r.cfg.Cost.DiskPage
	}
	examined := virtualHeight*btree.DefaultOrder + len(cands)
	lat += r.cfg.Cost.ProbeCost(examined)
	return out, Result{Latency: lat, RecordsExamined: int64(examined)}
}

// Range searches the lifted rectangle.
func (r *RTree) Range(q query.Range) ([]uint64, Result) {
	out := r.tree.Search(nil, r.liftRange(q))
	return out, r.visitCost(len(out))
}

// TopK runs exact branch-and-bound k-NN restricted to the queried
// (normalized) dimensions.
func (r *RTree) TopK(q query.TopK) ([]uint64, Result) {
	p := make([]float64, metadata.NumAttrs+1)
	dims := make([]int, len(q.Attrs))
	for i, a := range q.Attrs {
		p[a] = r.norm.Value(a, q.Point[i])
		dims[i] = int(a)
	}
	nn := r.tree.NearestKDims(p, q.K, dims)
	out := make([]uint64, len(nn))
	for i, n := range nn {
		out[i] = n.ID
	}
	examined := r.tree.LastVisited()*rtree.DefaultMax*topKDistanceCostFactor + len(nn)
	vExamined := r.cfg.scale(examined)
	return out, Result{
		Latency:         r.cfg.Cost.ScanCost(vExamined, r.total),
		RecordsExamined: int64(vExamined),
	}
}

// visitCost converts the R-tree's last visit count plus result size into
// virtual cost: every visited node is a page-sized unit of work on the
// single overloaded server.
func (r *RTree) visitCost(results int) Result {
	examined := r.tree.LastVisited()*rtree.DefaultMax + results
	vExamined := r.cfg.scale(examined)
	return Result{
		Latency:         r.cfg.Cost.ScanCost(vExamined, r.total),
		RecordsExamined: int64(vExamined),
	}
}

// SizeBytes reports the centralized index footprint.
func (r *RTree) SizeBytes() int { return r.tree.SizeBytes() }

// pathHash maps a pathname to a [0,1] index coordinate via MD5.
func pathHash(path string) float64 {
	sum := md5.Sum([]byte(path))
	v := binary.LittleEndian.Uint64(sum[:8])
	return float64(v>>11) / float64(uint64(1)<<53)
}
