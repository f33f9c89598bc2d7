// Package engine is the sharded store engine behind the root package's
// Store: it owns N independent shards — each with one semantic R-tree,
// its cluster deployment and lock — so concurrent queries and writes on
// different shards never contend.
//
// Placement is semantic and stable: the file population is cut into N
// contiguous regions of the LSI-ordered semantic space at build time,
// each region's centroid is frozen, and every later insert routes to
// the shard whose centroid is nearest in the normalized attribute
// subspace. An exact id → shard index (maintained on every mutation and
// rebuilt on load) routes point-wise operations — delete, modify,
// lookup-by-id — in O(1) without touching the other shards.
//
// Queries fan out to the relevant shards in parallel: range queries
// skip shards whose root MBR misses the query rectangle, top-k answers
// merge per-shard candidates by true normalized distance under a
// bounded heap, and reports aggregate with max-latency (shards run in
// parallel) and summed message/work counts. A single-shard engine
// executes exactly the original store's code path — no partitioning, no
// merging — so Shards=1 reproduces the unsharded behaviour bit for bit.
//
// Durability is per shard: with a write-ahead log attached (AttachWAL),
// every mutation follows the log-then-apply path under the shard's
// write lock — the record is on disk before the change is visible, and
// shards never contend on a shared log. A multi-shard insert batch is
// logged to every target shard (under the same ascending lock order
// Save uses) with a shared batch id before any shard applies, so
// recovery can drop a batch that did not reach every target — the
// atomic-batch guarantee survives a crash. Checkpoint is lock-light:
// it captures the snapshot and rotates every shard's segmented WAL
// under the all-shard read locks, releases them, writes the snapshot
// outside the lock hold, and only then deletes the sealed segments the
// snapshot covers — writers proceed for the whole encode. Recover
// replays per-shard tails, independently and in parallel, past the
// snapshot's per-shard epoch truncation points. See internal/wal and
// DESIGN.md §7.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Config parameterizes Build and Restore.
type Config struct {
	// Shards is the number of independent shards. 0 selects 1.
	Shards int
	// Units is the total number of storage units, distributed across
	// shards as evenly as the populations allow.
	Units int
	// Attrs is the grouping predicate shared by every shard.
	Attrs []metadata.Attr
	// Tree carries fan-out bounds and the admission threshold; its
	// Attrs field is ignored (Config.Attrs wins).
	Tree semtree.Config
	// Cluster carries the deployment seed; the serving engine leaves its
	// Replicas hook nil, so every acknowledged mutation answers the next
	// query. Shard 0 uses Cluster.Seed verbatim; later
	// shards derive distinct deterministic seeds from it.
	Cluster cluster.Config
	// OfflineGroupBudget overrides the off-line search breadth: each
	// shard's off-line complex query searches at most this many groups,
	// and a multi-shard off-line top-k fans out to at most this many
	// shards. 0 keeps the adaptive heuristics: the cluster's
	// offlineMaxGroups on a lone shard, metadata.OfflineFanout on each
	// shard of a multi-shard fan-out and over the shards themselves. A
	// budget at least the group and shard counts makes the off-line
	// path exhaustive. The evaluation harness sweeps this knob to map
	// the recall/cost curve.
	OfflineGroupBudget int
	// Norm, when fitted, is used verbatim instead of fitting a
	// normalizer to the build corpus. A federation of stores must share
	// one normalization so distances — and therefore top-k answers —
	// computed on different backends are comparable; the gateway's
	// equivalence guarantee depends on it.
	Norm *metadata.Normalizer
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// Engine is a sharded deployment.
type Engine struct {
	cfg    Config
	norm   *metadata.Normalizer
	shards []*Shard
	// centroids[i] is shard i's frozen semantic centroid over
	// cfg.Attrs in normalized space — the stable placement target.
	centroids [][]float64

	// assign maps file id → shard index; maxID tracks the largest
	// stored id. Both are guarded by assignMu. placeMu serializes only
	// the insert routing phase — validation plus id reservation — so
	// uniqueness checks cannot race another insert, while commits (and
	// deletes/modifies, which never reserve) proceed in parallel across
	// shards. Inserts reserve their ids before committing and deletes
	// unreserve only after committing, so an id always maps to the one
	// shard that holds (or is about to hold) it.
	assignMu sync.RWMutex
	assign   map[uint64]int
	maxID    uint64
	placeMu  sync.Mutex

	// batchSeq numbers multi-shard insert batches within this process
	// so their per-shard WAL records share a batch id. Recovery
	// checkpoints (snapshot + truncate) before the engine serves, so
	// ids restarting from zero can never collide with ids still in a
	// log. Zero is reserved for single-shard records.
	batchSeq atomic.Uint64

	// ckptMu serializes checkpoints: the rotate-snapshot-drop protocol
	// releases the shard locks mid-flight, so two interleaved
	// checkpoints could otherwise cross their rotation boundaries and
	// deferred deletions.
	ckptMu sync.Mutex

	// obsv is the optional metric sink (observe.go), attached by the
	// store facade after the serving layer builds its registry. Atomic
	// so attachment never races an in-flight query.
	obsv atomic.Pointer[Obs]

	// replBase holds each shard's replication base: the epoch of the
	// latest durable snapshot (repl.go). Atomic because followers probe
	// it on every tail pull while checkpoints replace it.
	replBase atomic.Pointer[[]uint64]
}

// seedFor derives shard i's deterministic cluster seed. Shard 0 keeps
// the configured seed verbatim so a single-shard engine reproduces the
// unsharded deployment exactly.
func seedFor(base uint64, i int) uint64 {
	return base + uint64(i)*0x9E3779B97F4A7C15
}

// Build constructs a sharded engine over the corpus: the population is
// partitioned into Shards semantic regions, each region is placed into
// its share of the units and built into one tree, and each tree is
// deployed exactly as Restore deploys a snapshot's.
func Build(files []*metadata.File, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(files) == 0 {
		return nil, fmt.Errorf("engine: empty corpus")
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.Units {
		return nil, fmt.Errorf("engine: %d shards invalid for %d units (need 1 ≤ shards ≤ units)",
			cfg.Shards, cfg.Units)
	}
	if cfg.Shards > len(files) {
		return nil, fmt.Errorf("engine: %d shards invalid for %d files", cfg.Shards, len(files))
	}
	if cfg.OfflineGroupBudget < 0 {
		return nil, fmt.Errorf("engine: negative offline group budget %d", cfg.OfflineGroupBudget)
	}
	if err := cfg.Tree.Validate(); err != nil {
		return nil, err
	}

	norm := cfg.Norm
	if norm == nil || !norm.Fitted() {
		norm = &metadata.Normalizer{}
		norm.Fit(files)
	}

	treeCfg := cfg.Tree
	treeCfg.Attrs = cfg.Attrs
	e := newEngine(cfg, norm, len(files))
	for i, part := range partition(files, cfg.Shards, norm, cfg.Attrs) {
		units := semtree.PlaceSemantic(part, unitShare(cfg.Units, cfg.Shards, i, len(part)), norm, cfg.Attrs)
		e.deploy(i, semtree.Build(units, norm, treeCfg), part)
	}
	return e, nil
}

// Restore deploys an engine from a snapshot, one shard per persisted
// tree, rebuilding the id index and placement centroids from the
// persisted populations. Each shard resumes the snapshot's epoch, which
// is also the replication base: recovery replays its WAL tail past that
// epoch, and a follower pulls the leader's log from it.
func Restore(snap *snapshot.Snapshot, cfg Config) (*Engine, error) {
	trees, err := snap.RestoreShards()
	if err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("engine: no shards to restore")
	}
	cfg.Shards = len(trees)
	cfg.Attrs = trees[0].Attrs
	e := newEngine(cfg, trees[0].Norm, 0)
	epochs := snap.ShardEpochs()
	for i, t := range trees {
		e.deploy(i, t, t.AllFiles())
		e.shards[i].epoch.Store(epochs[i])
	}
	e.setReplBase(epochs)
	return e, nil
}

// newEngine allocates an engine with cfg.Shards empty shard slots and an
// id index sized for files entries.
func newEngine(cfg Config, norm *metadata.Normalizer, files int) *Engine {
	return &Engine{
		cfg:       cfg,
		norm:      norm,
		shards:    make([]*Shard, cfg.Shards),
		centroids: make([][]float64, cfg.Shards),
		assign:    make(map[uint64]int, files),
	}
}

// deploy installs shard i: a deployment around tree under the shard's
// derived seed, with files — the tree's population — frozen into the
// shard's placement centroid and entered in the id index.
func (e *Engine) deploy(i int, tree *semtree.Tree, files []*metadata.File) {
	clCfg := e.cfg.Cluster
	clCfg.Seed = seedFor(e.cfg.Cluster.Seed, i)
	e.shards[i] = newShard(i, tree, clCfg, e.cfg.OfflineGroupBudget)
	e.centroids[i] = centroidOf(e.norm, files, e.cfg.Attrs)
	for _, f := range files {
		e.assign[f.ID] = i
		e.maxID = max(e.maxID, f.ID)
	}
}

// partition cuts the corpus into shard populations along the same
// LSI-ordered semantic dimension the in-shard placement uses, so files
// likely to satisfy the same query land on the same shard. A one-shard
// engine keeps the corpus untouched (order included) to stay bit-for-
// bit identical with the unsharded build.
func partition(files []*metadata.File, shards int, norm *metadata.Normalizer, attrs []metadata.Attr) [][]*metadata.File {
	if shards == 1 {
		return [][]*metadata.File{files}
	}
	units := semtree.PlaceSemantic(files, shards, norm, attrs)
	parts := make([][]*metadata.File, len(units))
	for i, u := range units {
		parts[i] = u.Files
	}
	return parts
}

// unitShare distributes the total unit budget across shards, clamped to
// each shard's population.
func unitShare(units, shards, i, population int) int {
	share := units / shards
	if i < units%shards {
		share++
	}
	if share > population {
		share = population
	}
	if share < 1 {
		share = 1
	}
	return share
}

// centroidOf freezes a shard's placement centroid.
func centroidOf(norm *metadata.Normalizer, files []*metadata.File, attrs []metadata.Attr) []float64 {
	if c := metadata.Centroid(norm, files, attrs); c != nil {
		return c
	}
	return make([]float64, len(attrs))
}

// shardFor routes a file vector to the shard with the nearest frozen
// centroid — the stable semantic placement of writes.
func (e *Engine) shardFor(f *metadata.File) int {
	if len(e.shards) == 1 {
		return 0
	}
	return metadata.NearestCentroid(e.centroids, e.norm.Vector(f, e.cfg.Attrs))
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Epoch returns the composed mutation epoch: the sum of per-shard
// epochs. Each shard epoch is monotonic, so the sum is monotonic for
// any observer, and any committed mutation anywhere changes it — the
// property result caches key on.
func (e *Engine) Epoch() uint64 {
	var sum uint64
	for _, s := range e.shards {
		sum += s.epoch.Load()
	}
	return sum
}

// ShardEpochs snapshots every shard's mutation epoch in shard order.
// Each entry is individually monotonic, so a cache keyed on a target
// subset of shards can compare entries pair-wise and ignore writes that
// landed elsewhere.
func (e *Engine) ShardEpochs() []uint64 {
	out := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.epoch.Load()
	}
	return out
}

// Placement describes this engine's semantic placement for a
// federating layer above it: the placement attributes, the store-wide
// file-count-weighted centroid in raw attribute units, and the raw
// normalization bounds per attribute. A gateway composes the per-store
// bounds into a federation-wide normalizer, re-normalizes the raw
// centroids through it, and routes over members with the functions the
// engine routes over shards with.
type Placement struct {
	Attrs    []metadata.Attr
	Centroid []float64
	Lo, Hi   []float64
}

// Placement reports the engine's placement summary. The centroid is the
// file-count-weighted mean of the frozen shard centroids, denormalized
// through the engine's own bounds; degenerate bounds (hi ≤ lo: the fit
// saw one distinct value) denormalize to lo.
func (e *Engine) Placement() Placement {
	p := Placement{
		Attrs:    append([]metadata.Attr(nil), e.cfg.Attrs...),
		Centroid: make([]float64, len(e.cfg.Attrs)),
		Lo:       make([]float64, len(e.cfg.Attrs)),
		Hi:       make([]float64, len(e.cfg.Attrs)),
	}
	for j, a := range e.cfg.Attrs {
		p.Lo[j], p.Hi[j] = e.norm.Bounds(a)
	}
	var weight float64
	norm := make([]float64, len(e.cfg.Attrs))
	for i, s := range e.shards {
		w := float64(s.stats().Files)
		if w <= 0 {
			continue
		}
		weight += w
		for j := range norm {
			if j < len(e.centroids[i]) {
				norm[j] += w * e.centroids[i][j]
			}
		}
	}
	for j := range norm {
		v := 0.0
		if weight > 0 {
			v = norm[j] / weight
		}
		lo, hi := p.Lo[j], p.Hi[j]
		if hi > lo {
			p.Centroid[j] = lo + v*(hi-lo)
		} else {
			p.Centroid[j] = lo
		}
	}
	return p
}

// MaxFileID returns the largest file id currently stored (0 when
// empty), maintained incrementally alongside the id → shard index.
func (e *Engine) MaxFileID() uint64 {
	e.assignMu.RLock()
	defer e.assignMu.RUnlock()
	return e.maxID
}

// FileByID returns a copy of the stored file with the given id, routed
// directly to its owning shard through the id index.
func (e *Engine) FileByID(id uint64) (metadata.File, bool) {
	e.assignMu.RLock()
	idx, ok := e.assign[id]
	e.assignMu.RUnlock()
	if !ok {
		return metadata.File{}, false
	}
	return e.shards[idx].fileByID(id)
}

// ErrInvalidBatch tags InsertBatch's validation failures — a zero or
// duplicate id — so callers can tell a batch that was the caller's
// fault from a WAL failure.
var ErrInvalidBatch = errors.New("invalid batch")

// InsertBatch validates and inserts files: ids must be nonzero, unique
// within the batch and absent from the store (a violation wraps
// ErrInvalidBatch). The routing phase —
// validation plus id reservation in the assignment index — is
// serialized under placeMu so the uniqueness check cannot race another
// insert; the commit phase then runs outside it, so batches bound for
// different shards insert in parallel. All target shards are
// write-locked in ascending order (the deadlock-free total order
// Save's all-shard read-lock shares) before any insert lands, so each
// shard — and any snapshot — observes the batch atomically; a query
// fanning out across shards acquires per-shard read locks
// independently and sees per-shard (not cross-shard) atomicity. Each
// affected shard bumps its epoch once.
func (e *Engine) InsertBatch(files []*metadata.File) (Report, error) {
	if len(files) == 0 {
		return Report{}, nil
	}
	// Routing phase: validate, route, and reserve ids under placeMu.
	e.placeMu.Lock()
	e.assignMu.RLock()
	seen := make(map[uint64]bool, len(files))
	for _, f := range files {
		if f.ID == 0 {
			e.assignMu.RUnlock()
			e.placeMu.Unlock()
			return Report{}, fmt.Errorf("engine: %w: insert without id (path %q)", ErrInvalidBatch, f.Path)
		}
		if _, stored := e.assign[f.ID]; stored || seen[f.ID] {
			e.assignMu.RUnlock()
			e.placeMu.Unlock()
			return Report{}, fmt.Errorf("engine: %w: duplicate file id %d", ErrInvalidBatch, f.ID)
		}
		seen[f.ID] = true
	}
	e.assignMu.RUnlock()

	batches := make(map[int][]*metadata.File)
	for _, f := range files {
		idx := e.shardFor(f)
		batches[idx] = append(batches[idx], f)
	}
	e.assignMu.Lock()
	for idx, batch := range batches {
		for _, f := range batch {
			e.assign[f.ID] = idx
			if f.ID > e.maxID {
				e.maxID = f.ID
			}
		}
	}
	e.assignMu.Unlock()
	e.placeMu.Unlock()

	// Commit phase: lock every target shard in ascending order, then
	// run the per-shard sub-batches in parallel. A point-wise operation
	// racing a reserved-but-uncommitted id blocks on the shard lock and
	// observes the batch once it lands.
	targets := make([]int, 0, len(batches))
	for idx := range batches {
		targets = append(targets, idx)
	}
	sort.Ints(targets)
	for _, idx := range targets {
		e.shards[idx].mu.Lock()
	}
	unlock := func() {
		for _, idx := range targets {
			e.shards[idx].mu.Unlock()
		}
	}

	// Durability phase: with every target write-locked, stage the batch
	// record on every target shard's WAL before any shard applies
	// anything. A batch spanning shards carries a shared batch id and
	// the full target set, so recovery can drop a batch that did not
	// reach every target's log (it was never acknowledged) — the
	// atomic-batch guarantee survives a crash. A staging failure
	// rejects the whole batch before any insert lands; records already
	// staged on other targets are then incomplete and ignored by
	// recovery the same way. The fsync acknowledgements (the waits) are
	// collected here and drained only after the shard locks drop, so
	// concurrent writers overlap their group commits. Every collected
	// wait is called on every path — leaking one hangs Log.Close.
	var waits []func() error
	if e.durable() {
		var batchID uint64
		if len(targets) > 1 {
			batchID = e.batchSeq.Add(1)
		}
		waits = make([]func() error, 0, len(targets))
		for _, idx := range targets {
			sub := batches[idx]
			recs := make([]metadata.File, len(sub))
			for i, f := range sub {
				recs[i] = *f
			}
			rec := wal.Record{Op: wal.OpInsert, BatchID: batchID, Files: recs}
			if batchID != 0 {
				rec.Targets = targets
			}
			wait, err := e.shards[idx].stageRecord(rec)
			if err != nil {
				unlock()
				// The earlier targets' frames belong to a batch that
				// will never complete; recovery drops them. Their waits
				// must still run (commit verdicts are irrelevant — the
				// batch is already rejected).
				for _, w := range waits {
					_ = w()
				}
				e.unreserve(files)
				return Report{}, err
			}
			waits = append(waits, wait)
		}
	}

	results := make([]cluster.Result, len(targets))
	var wg sync.WaitGroup
	for i, idx := range targets {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			results[i] = e.shards[idx].insertFilesLocked(batches[idx])
			e.shards[idx].epoch.Add(1)
		}(i, idx)
	}
	wg.Wait()
	unlock()

	// Await the covering fsyncs outside every shard lock. A failed wait
	// means the batch applied but was never acknowledged durable — the
	// caller must treat it as indeterminate (DESIGN.md §7); the files
	// stay placed so the in-memory state remains coherent.
	var waitErr error
	for _, w := range waits {
		if err := w(); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	if waitErr != nil {
		return Report{}, waitErr
	}

	if o := e.obsv.Load(); o != nil {
		for idx, batch := range batches {
			if idx < len(o.ShardInserts) && o.ShardInserts[idx] != nil {
				o.ShardInserts[idx].Add(uint64(len(batch)))
			}
		}
	}

	// Sub-batches commit side by side with no routing between shards, so
	// a batch spanning shards charges no cross-shard hop.
	reports := make([]Report, len(results))
	for i, res := range results {
		reports[i] = reportFrom(res)
	}
	return Compose(reports, 0), nil
}

// Delete removes a file by id, reporting whether it existed. The id
// index routes the delete to its owning shard — deletes on different
// shards run in parallel — and an unknown id is a no-op that touches no
// shard state and bumps no epoch. On a durable deployment the delete
// record is staged before it applies (a replayed delete of a since-
// vanished id is a harmless no-op); a WAL staging failure rejects the
// delete without applying it, and the group-commit fsync is awaited
// only after the shard lock drops. The index entry is removed only
// after the shard commit, so a concurrent insert of the same id is
// rejected as a duplicate until the delete has fully landed.
func (e *Engine) Delete(id uint64) (Report, bool, error) {
	e.assignMu.RLock()
	idx, ok := e.assign[id]
	e.assignMu.RUnlock()
	if !ok {
		return Report{}, false, nil
	}
	s := e.shards[idx]
	var res cluster.Result
	var found bool
	s.mu.Lock()
	wait, err := s.stageThen(wal.Record{Op: wal.OpDelete, ID: id}, func() bool {
		res, found = s.cluster.DeleteFile(id)
		return found
	})
	s.mu.Unlock()
	if err != nil {
		return Report{}, false, err
	}
	// The index entry goes regardless of the fsync verdict: the delete
	// already applied to the shard, and the assign index must track the
	// shard's contents.
	if found {
		e.assignMu.Lock()
		delete(e.assign, id)
		if id == e.maxID {
			e.recomputeMaxLocked()
		}
		e.assignMu.Unlock()
	}
	if err := wait(); err != nil {
		return Report{}, false, err
	}
	return reportFrom(res), found, nil
}

// Modify replaces an existing file's attributes on its owning shard;
// modifies on different shards run in parallel. Durable deployments
// stage the replacement record before applying it; a WAL staging
// failure rejects the modify without applying it, and the fsync
// acknowledgement is awaited outside the shard lock.
func (e *Engine) Modify(f *metadata.File) (Report, bool, error) {
	return e.modify(f.ID, func(*Shard) *metadata.File { return f })
}

// ModifyAttrs sets the named attributes of an existing file and keeps
// the rest of its vector. The merge reads the stored record under the
// same write lock that applies it, so concurrent partial modifies of
// one id naming different attributes all survive; the staged WAL record
// is the full merged file, exactly what Modify would have logged.
func (e *Engine) ModifyAttrs(id uint64, attrs map[metadata.Attr]float64) (Report, bool, error) {
	return e.modify(id, func(s *Shard) *metadata.File {
		cur, ok := s.cluster.FileByID(id)
		if !ok {
			return nil
		}
		merged := *cur
		for a, v := range attrs {
			merged.Attrs[a] = v
		}
		return &merged
	})
}

// modify stages and applies the replacement record next returns for id;
// next runs under the owning shard's write lock and returns nil when
// there is nothing to replace.
func (e *Engine) modify(id uint64, next func(*Shard) *metadata.File) (Report, bool, error) {
	e.assignMu.RLock()
	idx, ok := e.assign[id]
	e.assignMu.RUnlock()
	if !ok {
		return Report{}, false, nil
	}
	s := e.shards[idx]
	var res cluster.Result
	var found bool
	s.mu.Lock()
	f := next(s)
	if f == nil {
		s.mu.Unlock()
		return Report{}, false, nil
	}
	wait, err := s.stageThen(wal.Record{Op: wal.OpModify, Files: []metadata.File{*f}}, func() bool {
		res, found = s.cluster.ModifyFile(f)
		return found
	})
	s.mu.Unlock()
	if err != nil {
		return Report{}, false, err
	}
	if err := wait(); err != nil {
		return Report{}, false, err
	}
	return reportFrom(res), found, nil
}

// Stats aggregates structural statistics across shards, with the
// per-shard breakdown.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards), PerShard: make([]ShardStats, len(e.shards))}
	weightedBytes := 0
	for i, s := range e.shards {
		p := s.stats()
		bytesTotal, bytesPerNode := s.indexBytes()
		st.PerShard[i] = p
		st.Units += p.Units
		st.IndexUnits += p.IndexUnits
		st.Files += p.Files
		st.Trees += p.Trees
		st.IndexBytesTotal += bytesTotal
		st.TreeHeight = max(st.TreeHeight, p.TreeHeight)
		st.Epoch += p.Epoch
		weightedBytes += bytesPerNode * p.Units
	}
	if st.Units > 0 {
		st.IndexBytesPerNode = weightedBytes / st.Units
	}
	return st
}

// Snapshot captures the engine under every shard's read lock — taken
// in ascending order before any shard is captured, so a snapshot
// racing a multi-shard batch sees either all of it or none of it.
func (e *Engine) Snapshot() *snapshot.Snapshot {
	for _, s := range e.shards {
		s.mu.RLock()
	}
	defer func() {
		for _, s := range e.shards {
			s.mu.RUnlock()
		}
	}()
	return e.snapshotLocked()
}

// snapshotLocked captures every shard's tree and epoch. The caller
// must hold every shard's read lock, so the epochs are the truncation
// points of exactly the state captured.
func (e *Engine) snapshotLocked() *snapshot.Snapshot {
	trees := make([]*semtree.Tree, len(e.shards))
	epochs := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		trees[i] = s.cluster.Tree
		epochs[i] = s.epoch.Load()
	}
	return snapshot.CaptureShards(trees, epochs)
}

// unreserve rolls back the assignment-index reservation of a rejected
// insert batch.
func (e *Engine) unreserve(files []*metadata.File) {
	e.assignMu.Lock()
	defer e.assignMu.Unlock()
	for _, f := range files {
		delete(e.assign, f.ID)
	}
	e.recomputeMaxLocked()
}

// recomputeMaxLocked rescans the assignment index for the largest
// stored id after a removal invalidated the incremental maximum. The
// caller must hold assignMu exclusively.
func (e *Engine) recomputeMaxLocked() {
	e.maxID = 0
	for fid := range e.assign {
		if fid > e.maxID {
			e.maxID = fid
		}
	}
}
