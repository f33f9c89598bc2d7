package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/wal"
)

// Shard is one independent slice of a sharded deployment: its own
// semantic R-tree forest, cluster deployment, virtual-time state and
// lock. Shards never share mutable state, so operations on different
// shards proceed fully in parallel; within a shard the same two-level
// locking as the original single-store design applies (an RWMutex for
// tree structure, a per-deployment capacity-1 query slot for the
// simulated phase).
type Shard struct {
	id       int
	attrs    []metadata.Attr
	primary  *cluster.Cluster
	forest   *semtree.Forest
	clusters map[*semtree.Tree]*cluster.Cluster

	// mu keeps tree structure stable: readers share it, mutators hold
	// it exclusively. qslot serializes each deployment's simulation
	// machinery (sim counters, home-unit RNG, lazy id cache); it is a
	// capacity-1 channel semaphore rather than a mutex so waiters can
	// abandon the wait on context cancellation. epoch counts this
	// shard's committed mutations; the engine composes shard epochs
	// into the store-wide epoch.
	mu    sync.RWMutex
	qslot map[*cluster.Cluster]chan struct{}
	epoch atomic.Uint64

	// log is the shard's write-ahead log (nil on a non-durable
	// deployment). Every mutation goes through the stageThen path —
	// stage the record, then apply, then await the group-commit fsync
	// after dropping the write lock — so records land in mutation
	// order and an acknowledged mutation is always on disk before the
	// acknowledgement, while same-shard writers overlap their fsyncs.
	log *wal.Log

	// budget is the configured off-line group budget override
	// (Config.OfflineGroupBudget); 0 keeps the adaptive heuristics.
	budget int
}

// buildShard mirrors the original Store construction over one shard's
// file population: semantic placement into unitCount storage units, the
// primary tree over the grouping predicate, and — under auto-config —
// specialized trees per attribute subset, each with its own deployment.
func buildShard(id int, files []*metadata.File, norm *metadata.Normalizer,
	cfg Config, unitCount int, seed uint64) *Shard {

	treeCfg := cfg.Tree
	treeCfg.Attrs = cfg.Attrs
	clusterCfg := cfg.Cluster
	clusterCfg.Seed = seed

	s := &Shard{id: id, attrs: cfg.Attrs, clusters: map[*semtree.Tree]*cluster.Cluster{},
		budget: cfg.OfflineGroupBudget}

	units := semtree.PlaceSemantic(files, unitCount, norm, cfg.Attrs)
	primaryTree := semtree.Build(units, norm, treeCfg)
	s.primary = cluster.New(primaryTree, clusterCfg)
	s.clusters[primaryTree] = s.primary

	if cfg.AutoConfig {
		s.forest = semtree.AutoConfigure(
			semtree.PlaceSemantic(files, unitCount, norm, metadata.AllAttrs()),
			norm, treeCfg, nil, cfg.AutoConfigThreshold)
		for _, t := range s.forest.Trees() {
			s.clusters[t] = cluster.New(t, clusterCfg)
		}
	}
	s.initSlots()
	return s
}

// restoreShard wraps a deployment around a tree restored from a
// snapshot. Specialized auto-configuration trees are not persisted and
// not rebuilt here, matching the original Load behaviour.
func restoreShard(id int, tree *semtree.Tree, clusterCfg cluster.Config, budget int) *Shard {
	s := &Shard{
		id:       id,
		attrs:    tree.Attrs,
		clusters: map[*semtree.Tree]*cluster.Cluster{},
		budget:   budget,
	}
	s.primary = cluster.New(tree, clusterCfg)
	s.clusters[tree] = s.primary
	s.initSlots()
	return s
}

func (s *Shard) initSlots() {
	s.qslot = make(map[*cluster.Cluster]chan struct{}, len(s.clusters))
	for _, c := range s.clusters {
		s.qslot[c] = make(chan struct{}, 1)
	}
}

// clusterFor picks the deployment serving a query over the given
// attributes: with auto-configuration, the forest member whose grouping
// attributes match best; otherwise the primary tree.
func (s *Shard) clusterFor(attrs []metadata.Attr) *cluster.Cluster {
	if s.forest == nil {
		return s.primary
	}
	if sameAttrs(s.attrs, attrs) {
		return s.primary
	}
	return s.clusters[s.forest.SelectTree(attrs)]
}

// offlineBudget resolves the off-line group budget of a sharded
// fan-out on this shard: the configured override wins; otherwise the
// deployment's shared heuristic budget.
func (s *Shard) offlineBudget(c *cluster.Cluster) int {
	if s.budget > 0 {
		return s.budget
	}
	return c.SharedOfflineBudget()
}

func sameAttrs(a, b []metadata.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[metadata.Attr]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}

// runQueryCtx serializes one deployment's virtual-time machinery around
// f with a cancellable wait: a context cancelled while queued for the
// deployment slot — or observed cancelled once it is acquired — returns
// ctx.Err() without running f. The shard read lock must be held.
func (s *Shard) runQueryCtx(ctx context.Context, c *cluster.Cluster, f func() error) error {
	slot := s.qslot[c]
	select {
	case slot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-slot }()
	if err := ctx.Err(); err != nil {
		return err
	}
	return f()
}

// answer is one shard's contribution to a fanned-out query.
type answer struct {
	ids []uint64
	// dists holds the normalized squared distance per id for top-k
	// merging (computed only when the engine must merge across shards).
	dists []float64
	// recs maps id → record copy when the query projects records.
	recs map[uint64]metadata.File
	res  cluster.Result
	// pruned reports that the shard was skipped by the MBR test without
	// touching its deployment state.
	pruned bool
}

// point answers a filename point query on this shard. When prune is
// set, a shard whose root Bloom filter rejects the name is skipped
// without touching its deployment state — the filter admits every
// stored name (insertions update unit filters immediately; deletions
// never remove), so a negative proves the shard cannot answer.
func (s *Shard) point(ctx context.Context, q query.Point, prune bool, opts projectOpts) (answer, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if prune && !s.primary.Tree.MayContainPath(q.Filename) {
		return answer{pruned: true}, nil
	}
	var a answer
	err := s.runQueryCtx(ctx, s.primary, func() error {
		a.ids, a.res = s.primary.Point(q)
		s.project(s.primary, &a, opts.records, opts.max)
		return ctx.Err()
	})
	return a, err
}

// projectOpts bounds a shard's record projection: records toggles it,
// max caps the projected ids (0 = all).
type projectOpts struct {
	records bool
	max     int
}

// rangeQuery answers a range query on this shard. When sharded is set
// — the shard is one member of a multi-shard fan-out — a shard whose
// whole population falls outside the query rectangle is skipped without
// drawing on its deployment's RNG or simulation state, and the off-line
// path runs under the shared group budget (the cross-shard union
// supplies breadth, so every shard forgoes the solo 3-group floor).
func (s *Shard) rangeQuery(ctx context.Context, q query.Range, online, sharded bool, opts projectOpts) (answer, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.clusterFor(q.Attrs)
	if sharded && !c.Tree.OverlapsRange(q) {
		return answer{pruned: true}, nil
	}
	var a answer
	err := s.runQueryCtx(ctx, c, func() error {
		switch {
		case online:
			a.ids, a.res = c.RangeOnline(q)
		case sharded:
			a.ids, a.res = c.RangeOfflineN(q, s.offlineBudget(c))
		default:
			a.ids, a.res = c.RangeOfflineN(q, s.budget)
		}
		s.project(c, &a, opts.records, opts.max)
		return ctx.Err()
	})
	return a, err
}

// topK answers a top-k query on this shard. When sharded, the off-line
// path runs under the shared group budget. When wantDists — a
// multi-shard merge, or a caller that asked for distances explicitly —
// each candidate's true normalized distance is resolved under the same
// query slot (where the lazy id index is safe to build) so answers can
// be merged by distance at any level above.
func (s *Shard) topK(ctx context.Context, q query.TopK, online, sharded, wantDists, includeRecords bool) (answer, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.clusterFor(q.Attrs)
	var a answer
	err := s.runQueryCtx(ctx, c, func() error {
		switch {
		case online:
			a.ids, a.res = c.TopKOnline(q)
		case sharded:
			a.ids, a.res = c.TopKOfflineN(q, s.offlineBudget(c))
		default:
			a.ids, a.res = c.TopKOfflineN(q, s.budget)
		}
		if wantDists {
			a.dists = make([]float64, len(a.ids))
			for i, id := range a.ids {
				if f, ok := c.FileByID(id); ok {
					a.dists[i] = q.Dist(c.Tree.Norm, f)
				} else {
					// A candidate the id index cannot resolve is a stale
					// replica answer (e.g. a pending-deleted file still in
					// the propagated snapshot). Rank it last so it can
					// never displace a live result — the single-deployment
					// rerank skips such ids the same way.
					a.dists[i] = math.Inf(1)
				}
			}
		}
		// Per-shard top-k candidates are already bounded by k, so the
		// projection needs no extra cap (the merge keeps a non-prefix
		// subset, so a tighter cap could drop surviving records).
		s.project(c, &a, includeRecords, 0)
		return ctx.Err()
	})
	return a, err
}

// project resolves the answer's ids to record copies while still
// holding the deployment slot (the id index builds lazily under it).
// max bounds how many ids are projected (0 = all): union-merged
// answers truncate to a prefix in shard order, so a shard can never
// contribute more than the limit — projecting beyond it would copy
// records the merge is guaranteed to drop.
func (s *Shard) project(c *cluster.Cluster, a *answer, includeRecords bool, max int) {
	if !includeRecords {
		return
	}
	ids := a.ids
	if max > 0 && len(ids) > max {
		ids = ids[:max]
	}
	a.recs = make(map[uint64]metadata.File, len(ids))
	for _, id := range ids {
		if f, ok := c.FileByID(id); ok {
			a.recs[id] = *f
		}
	}
}

// fileByID returns a copy of the stored file with the given id.
func (s *Shard) fileByID(id uint64) (metadata.File, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out metadata.File
	ok := false
	// The id index may be lazily built here — cluster-state mutation
	// needing the same serialization as queries.
	_ = s.runQueryCtx(context.Background(), s.primary, func() error {
		if f, found := s.primary.FileByID(id); found {
			out = *f
			ok = true
		}
		return nil
	})
	return out, ok
}

// noWait is the durability wait of a shard without a WAL.
var noWait = func() error { return nil }

// stageRecord stamps rec with the epoch it will commit at (the current
// epoch plus one) and stages it on the shard's WAL, returning the
// group-commit wait — a no-op wait without a WAL. Staging failures are
// returned immediately (with a nil wait) and reject the mutation, just
// as the old synchronous append did; only the fsync acknowledgement
// moves into the wait, which the caller runs after releasing the shard
// write lock so same-shard writers overlap their fsyncs. The caller
// must hold the shard's write lock while staging, so the stamped epoch
// cannot move before the record lands, and MUST call a returned
// non-nil wait on every path (leaking it hangs Log.Close).
func (s *Shard) stageRecord(rec wal.Record) (func() error, error) {
	if s.log == nil {
		return noWait, nil
	}
	rec.Epoch = s.epoch.Load() + 1
	wait, err := s.log.AppendAsync(&rec)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", s.id, err)
	}
	return func() error {
		if err := wait(); err != nil {
			return fmt.Errorf("engine: shard %d: %w", s.id, err)
		}
		return nil
	}, nil
}

// stageThen is the shard's durable mutation path: stage the record on
// the WAL, then apply the mutation, then bump the epoch if apply
// reports an effectual change, returning the durability wait for the
// caller to run after dropping the shard lock. The stage-before-apply
// order means a crash at any point loses nothing acknowledged: either
// the record reaches disk (replayed on recovery) or the mutation's
// wait never returned nil — a failed fsync after apply leaves the
// mutation visible but unacknowledged, with the log sticky-broken so
// nothing later is acknowledged either (DESIGN.md §7). A staging
// failure rejects the mutation without applying it — the log rolls
// back to the previous frame boundary. The caller must hold the
// shard's write lock.
func (s *Shard) stageThen(rec wal.Record, apply func() bool) (func() error, error) {
	wait, err := s.stageRecord(rec)
	if err != nil {
		return nil, err
	}
	if apply() {
		s.epoch.Add(1)
	}
	return wait, nil
}

// insertFilesLocked inserts files into every deployed tree, summing the
// primary deployment's accounting across the sub-batch. The caller must
// hold the shard's write lock.
func (s *Shard) insertFilesLocked(files []*metadata.File) cluster.Result {
	var total cluster.Result
	for _, f := range files {
		for _, c := range s.clusters {
			res := c.InsertFile(f)
			if c == s.primary {
				total.Latency += res.Latency
				total.Messages += res.Messages
				total.Hops += res.Hops
				total.UnitsSearched += res.UnitsSearched
				total.RecordsScanned += res.RecordsScanned
				total.VersionChecked += res.VersionChecked
				total.VersionLatency += res.VersionLatency
			}
		}
	}
	return total
}

// deleteLocked removes a file by id from every deployed tree. The
// caller must hold the shard's write lock.
func (s *Shard) deleteLocked(id uint64) (cluster.Result, bool) {
	var rep cluster.Result
	found := false
	for _, c := range s.clusters {
		res, ok := c.DeleteFile(id)
		if c == s.primary {
			rep = res
			found = ok
		}
	}
	return rep, found
}

// modifyLocked updates a file's attributes in every deployed tree. The
// caller must hold the shard's write lock.
func (s *Shard) modifyLocked(f *metadata.File) (cluster.Result, bool) {
	var rep cluster.Result
	found := false
	for _, c := range s.clusters {
		res, ok := c.ModifyFile(f)
		if c == s.primary {
			rep = res
			found = ok
		}
	}
	return rep, found
}

// flush propagates all pending changes on this shard, reporting whether
// anything was pending (the condition for an epoch bump). An effectual
// flush is logged (OpFlush, body-free) before propagating, so a
// recovered shard replays the same epoch trajectory and replica-state
// evolution the pre-crash shard went through; a no-op flush logs
// nothing and bumps nothing.
func (s *Shard) flush() (bool, error) {
	s.mu.Lock()
	changed := false
	for _, c := range s.clusters {
		for _, g := range c.Tree.FirstLevelIndexUnits() {
			if c.PendingCount(g) > 0 {
				changed = true
				break
			}
		}
		if changed {
			break
		}
	}
	wait := noWait
	if changed {
		var err error
		wait, err = s.stageRecord(wal.Record{Op: wal.OpFlush})
		if err != nil {
			s.mu.Unlock()
			return false, err
		}
	}
	for _, c := range s.clusters {
		c.PropagateAll()
	}
	if changed {
		s.epoch.Add(1)
	}
	s.mu.Unlock()
	if err := wait(); err != nil {
		return false, err
	}
	return changed, nil
}

// ShardStats is one shard's slice of the deployment: its units, index
// structure, resident files and its own mutation epoch. The struct is
// what /v1/stats puts on the wire per shard (DESIGN.md §5), so the
// facade's and the server's names are aliases of it.
type ShardStats struct {
	Shard      int    `json:"shard"`
	Units      int    `json:"units"`
	IndexUnits int    `json:"index_units"`
	TreeHeight int    `json:"tree_height"`
	Files      int    `json:"files"`
	Trees      int    `json:"trees"` // 1 + kept specialized trees
	Epoch      uint64 `json:"epoch"`
}

// Stats summarizes the deployment across shards — the "store" section
// of /v1/stats. Sizes sum, TreeHeight is the tallest shard's, Epoch is
// the composed mutation epoch (the sum of the per-shard epochs) and
// IndexBytesPerNode is weighted by each shard's unit count.
type Stats struct {
	Units             int          `json:"units"`
	IndexUnits        int          `json:"index_units"`
	TreeHeight        int          `json:"tree_height"`
	Files             int          `json:"files"`
	Trees             int          `json:"trees"`
	IndexBytesTotal   int          `json:"index_bytes_total"`
	IndexBytesPerNode int          `json:"index_bytes_per_node"`
	Epoch             uint64       `json:"epoch"`
	Shards            int          `json:"shards"`
	PerShard          []ShardStats `json:"per_shard,omitempty"`
}

// stats snapshots the shard's structural statistics under its read
// lock.
func (s *Shard) stats() ShardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	storage, index := s.primary.Tree.CountNodes()
	return ShardStats{
		Shard:      s.id,
		Units:      storage,
		IndexUnits: index,
		TreeHeight: s.primary.Tree.Height(),
		Files:      s.primary.Tree.TotalFiles(),
		Trees:      len(s.clusters),
		Epoch:      s.epoch.Load(),
	}
}

// indexBytes sizes the shard's index: every deployed tree in total,
// and the primary deployment's share per storage node. Only the
// store-wide Stats reports them.
func (s *Shard) indexBytes() (total, perNode int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.clusters {
		total += c.Tree.SizeBytes()
	}
	return total, s.primary.IndexSizeBytes()
}
