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
// semantic R-tree, cluster deployment, virtual-time state and lock.
// Shards never share mutable state, so operations on different shards
// proceed fully in parallel; within a shard the same two-level locking
// as the original single-store design applies (an RWMutex for tree
// structure, a capacity-1 query slot for the simulated phase).
type Shard struct {
	id      int
	cluster *cluster.Cluster

	// mu keeps tree structure stable: readers share it, mutators hold
	// it exclusively. qslot serializes the deployment's simulation
	// machinery (sim counters, home-unit RNG, lazy id cache); it is a
	// capacity-1 channel semaphore rather than a mutex so waiters can
	// abandon the wait on context cancellation. epoch counts this
	// shard's committed mutations; the engine composes shard epochs
	// into the store-wide epoch.
	mu    sync.RWMutex
	qslot chan struct{}
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

// newShard deploys a cluster around one shard's tree. A tree built from
// a corpus and one restored from a snapshot take this same path, so a
// built shard and a restored one differ in nothing but their tree.
func newShard(id int, tree *semtree.Tree, clusterCfg cluster.Config, budget int) *Shard {
	return &Shard{
		id:      id,
		cluster: cluster.New(tree, clusterCfg),
		qslot:   make(chan struct{}, 1),
		budget:  budget,
	}
}

// offlineBudget resolves the off-line group budget of a sharded
// fan-out on this shard: the configured override wins; otherwise the
// deployment's shared heuristic budget.
func (s *Shard) offlineBudget() int {
	if s.budget > 0 {
		return s.budget
	}
	return s.cluster.SharedOfflineBudget()
}

// runQueryCtx serializes the deployment's virtual-time machinery around
// f with a cancellable wait: a context cancelled while queued for the
// query slot — or observed cancelled once it is acquired — returns
// ctx.Err() without running f. The shard read lock must be held.
func (s *Shard) runQueryCtx(ctx context.Context, f func() error) error {
	select {
	case s.qslot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.qslot }()
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
	if prune && !s.cluster.Tree.MayContainPath(q.Filename) {
		return answer{pruned: true}, nil
	}
	var a answer
	err := s.runQueryCtx(ctx, func() error {
		a.ids, a.res = s.cluster.Point(q)
		s.project(&a, opts.records, opts.max)
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
	c := s.cluster
	if sharded && !c.Tree.OverlapsRange(q) {
		return answer{pruned: true}, nil
	}
	var a answer
	err := s.runQueryCtx(ctx, func() error {
		switch {
		case online:
			a.ids, a.res = c.RangeOnline(q)
		case sharded:
			a.ids, a.res = c.RangeOfflineN(q, s.offlineBudget())
		default:
			a.ids, a.res = c.RangeOfflineN(q, s.budget)
		}
		s.project(&a, opts.records, opts.max)
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
	c := s.cluster
	var a answer
	err := s.runQueryCtx(ctx, func() error {
		switch {
		case online:
			a.ids, a.res = c.TopKOnline(q)
		case sharded:
			a.ids, a.res = c.TopKOfflineN(q, s.offlineBudget())
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
		s.project(&a, includeRecords, 0)
		return ctx.Err()
	})
	return a, err
}

// project resolves the answer's ids to record copies while still
// holding the query slot (the id index builds lazily under it).
// max bounds how many ids are projected (0 = all): union-merged
// answers truncate to a prefix in shard order, so a shard can never
// contribute more than the limit — projecting beyond it would copy
// records the merge is guaranteed to drop.
func (s *Shard) project(a *answer, includeRecords bool, max int) {
	if !includeRecords {
		return
	}
	ids := a.ids
	if max > 0 && len(ids) > max {
		ids = ids[:max]
	}
	a.recs = make(map[uint64]metadata.File, len(ids))
	for _, id := range ids {
		if f, ok := s.cluster.FileByID(id); ok {
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
	_ = s.runQueryCtx(context.Background(), func() error {
		if f, found := s.cluster.FileByID(id); found {
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

// insertFilesLocked inserts files into the shard's deployment, summing
// its accounting across the sub-batch. The caller must hold the shard's
// write lock.
func (s *Shard) insertFilesLocked(files []*metadata.File) cluster.Result {
	var total cluster.Result
	for _, f := range files {
		res := s.cluster.InsertFile(f)
		total.Latency += res.Latency
		total.Messages += res.Messages
		total.Hops += res.Hops
		total.UnitsSearched += res.UnitsSearched
		total.RecordsScanned += res.RecordsScanned
		total.VersionChecked += res.VersionChecked
		total.VersionLatency += res.VersionLatency
	}
	return total
}

// flush propagates all pending changes on this shard, reporting whether
// anything was pending (the condition for an epoch bump). An effectual
// flush is logged (OpFlush, body-free) before propagating, so a
// recovered shard replays the same epoch trajectory and propagates at
// the same points of its log; a no-op flush logs nothing and bumps
// nothing.
func (s *Shard) flush() (bool, error) {
	s.mu.Lock()
	changed := false
	for _, g := range s.cluster.Tree.FirstLevelIndexUnits() {
		if s.cluster.PendingCount(g) > 0 {
			changed = true
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
	s.cluster.PropagateAll()
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
	Trees      int    `json:"trees"` // always 1: one semantic R-tree per shard
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
	storage, index := s.cluster.Tree.CountNodes()
	return ShardStats{
		Shard:      s.id,
		Units:      storage,
		IndexUnits: index,
		TreeHeight: s.cluster.Tree.Height(),
		Files:      s.cluster.Tree.TotalFiles(),
		Trees:      1,
		Epoch:      s.epoch.Load(),
	}
}

// indexBytes sizes the shard's index: the whole tree, and the
// deployment's share per storage node. Only the store-wide Stats
// reports them.
func (s *Shard) indexBytes() (total, perNode int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cluster.Tree.SizeBytes(), s.cluster.IndexSizeBytes()
}
