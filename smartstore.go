// Package smartstore is a Go implementation of SmartStore — the
// decentralized, semantic-aware file-system metadata organization of
// Hua, Jiang, Zhu, Feng and Tian (SC'09) — together with the substrates
// and baselines needed to reproduce the paper's evaluation.
//
// Instead of a directory tree, SmartStore groups file metadata by the
// semantic correlation of its multi-dimensional attributes, measured
// with Latent Semantic Indexing over an SVD. Correlated files aggregate
// into storage units (leaves of a semantic R-tree); storage units
// aggregate into index units carrying Minimum Bounding Rectangles and
// unioned Bloom filters. Complex queries — multi-dimensional range and
// top-k nearest-neighbour — are served by one or a small number of
// semantic groups rather than by brute-force search of every server.
//
// # Quick start
//
//	set := smartstore.GenerateTrace("MSN", 10000, 42)
//	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 60})
//	if err != nil { ... }
//	res, err := store.Do(ctx, smartstore.NewRangeQuery(
//	    []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes},
//	    []float64{36000, 30e6}, []float64{59000, 50e6}).
//	    WithOptions(smartstore.QueryOptions{IncludeRecords: true}))
//	if err != nil { ... }
//	fmt.Println(len(res.Records), res.Report.Latency)
//
// Point, range and top-k queries (§3.3.3, §3.3.1, §3.3.2) all go through
// Do.
//
// # Durability
//
// With Config.DataDir set the store is durable: each engine shard
// appends every mutation to its own segmented write-ahead log before
// applying it (Config.Durability picks the fsync policy; under Always,
// each log group-commits concurrent appenders), Checkpoint rotates
// the logs to fresh segments under the shard locks, persists the
// snapshot outside them, and retires the covered segments — writers
// proceed for the whole encode. Checkpoints run explicitly, and
// automatically when the live WAL outgrows Config.CheckpointBytes.
// Open recovers a crashed store — snapshot load plus parallel
// per-shard WAL tail replay — losing no acknowledged mutation. See
// DESIGN.md §7.
//
// See the examples/ directory for complete programs and DESIGN.md for
// the system inventory and experiment index.
package smartstore

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/semtree"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Attr identifies a metadata attribute dimension (file size, creation
// time, ..., access frequency).
type Attr = metadata.Attr

// Attribute constants re-exported from the metadata schema.
const (
	AttrSize       = metadata.AttrSize
	AttrCTime      = metadata.AttrCTime
	AttrMTime      = metadata.AttrMTime
	AttrATime      = metadata.AttrATime
	AttrReadBytes  = metadata.AttrReadBytes
	AttrWriteBytes = metadata.AttrWriteBytes
	AttrAccessFreq = metadata.AttrAccessFreq
	NumAttrs       = metadata.NumAttrs
)

// File is one file's metadata record.
type File = metadata.File

// TraceSet is a generated workload (see GenerateTrace).
type TraceSet = trace.Set

// Normalizer maps raw attribute values into the shared [0,1] semantic
// space all distances are computed in. Every store fits its own over
// its build corpus by default; a federation of stores must instead
// share one (see Config.Normalizer) so top-k distances computed on
// different backends are comparable and a gateway's merged answers
// match a single store's exactly.
type Normalizer = metadata.Normalizer

// FitNormalizer fits a normalizer over the given corpus — the handle a
// multi-store deployment builds once over the union of its backends'
// populations and passes to every backend's Config.Normalizer.
func FitNormalizer(files []*File) *Normalizer {
	n := &Normalizer{}
	n.Fit(files)
	return n
}

// Config parameterizes Build.
type Config struct {
	// Shards is the number of independent engine shards the deployment
	// is partitioned into. Each shard owns one semantic R-tree, its
	// cluster deployment and lock, so operations on different shards
	// never contend; queries fan out to the relevant shards in parallel
	// and merge. Default 1, which reproduces the unsharded store
	// exactly. Must not exceed Units.
	Shards int
	// Units is the number of storage units (metadata servers), summed
	// across shards. The prototype evaluation uses 60. Default 60.
	Units int
	// Attrs is the grouping predicate — the d-attribute subset of
	// special interest (§3.1.1). Default: mtime, read and write volume
	// (the paper's example query dimensions).
	Attrs []Attr
	// Mode is the complex-query path a query takes when its own
	// Options.Mode is ModeDefault. ModeDefault here means ModeOffline.
	Mode QueryMode
	// MaxChildren / MinChildren bound semantic R-tree fan-out (§4.1).
	MaxChildren, MinChildren int
	// Seed drives all randomized decisions. Deterministic per seed.
	Seed uint64
	// DataDir, when set, makes the store durable: every shard appends
	// mutations to its own write-ahead log under DataDir before
	// applying them, and Checkpoint/Close persist snapshots there. A
	// crashed durable store reopens with Open — snapshot load plus
	// per-shard WAL tail replay — losing no acknowledged mutation. See
	// DESIGN.md §7. Empty (the default) keeps the store purely
	// in-memory.
	DataDir string
	// Durability selects the WAL fsync policy when DataDir is set:
	// DurabilityAlways (the zero value — fsync before every
	// acknowledgement), DurabilityInterval (periodic background fsync
	// every SyncInterval), DurabilityNever (leave flushing to the OS).
	// Acknowledged mutations survive a process crash under every
	// policy; surviving power loss needs Always (or bounded loss under
	// Interval).
	Durability Durability
	// SyncInterval is the background fsync period under
	// DurabilityInterval (0 → 100ms).
	SyncInterval time.Duration
	// CheckpointBytes, when positive, triggers a checkpoint whenever the
	// live write-ahead logs (summed across shards, WALSizes) outgrow it
	// — bounding both recovery replay time and disk growth between
	// periodic checkpoints. 0 (the default) disables size-triggered
	// checkpoints.
	CheckpointBytes int64
	// WALSegmentBytes is the rotation capacity of each shard's WAL
	// segments (0 → the wal package default, 1 MiB). Smaller segments
	// retire more promptly after a checkpoint; larger ones rotate less
	// often.
	WALSegmentBytes int64
	// Normalizer, when set and fitted, overrides the normalizer Build
	// would fit over the corpus. Stores federated behind one gateway
	// must share a normalizer fitted over the union of their corpora
	// (FitNormalizer) so cross-store distances agree.
	Normalizer *Normalizer
	// OfflineGroupBudget overrides the off-line search breadth: each
	// shard's off-line complex query searches at most this many index
	// groups, and a sharded off-line top-k targets at most this many
	// shards. 0 (the default) keeps the paper's adaptive heuristics; a
	// budget at least the group and shard counts makes the off-line
	// path exhaustive. Negative is rejected by Build. The evaluation
	// harness (cmd/smarteval) sweeps this knob to map recall vs cost.
	OfflineGroupBudget int
}

// engineConfig maps the public configuration onto the engine layer's.
func (cfg Config) engineConfig() engine.Config {
	return engine.Config{
		Shards: cfg.Shards,
		Units:  cfg.Units,
		Attrs:  cfg.Attrs,
		Tree: semtree.Config{
			Attrs:       cfg.Attrs,
			MaxChildren: cfg.MaxChildren,
			MinChildren: cfg.MinChildren,
		},
		Cluster:            cluster.Config{Seed: cfg.Seed},
		Norm:               cfg.Normalizer,
		OfflineGroupBudget: cfg.OfflineGroupBudget,
	}
}

// Store is a deployed SmartStore instance.
//
// A Store is a facade over the sharded engine (internal/engine): the
// deployment is partitioned into Config.Shards independent shards, each
// with one semantic R-tree, its cluster deployment and lock. A Store is
// safe for concurrent use — queries take per-shard shared locks and fan
// out in parallel, mutations route to their owning shard (multi-shard
// batches lock all target shards in a deadlock-free total order), and
// operations on different shards never contend on a lock. With Shards: 1 (the default) the engine executes
// exactly the pre-sharding store's code path.
type Store struct {
	cfg Config
	eng *engine.Engine

	// Durable-deployment state (nil/zero without Config.DataDir): one
	// segmented write-ahead log per shard, the background fsync loop
	// under DurabilityInterval, the WAL-size-triggered checkpoint loop
	// under Config.CheckpointBytes, and close-once bookkeeping.
	logs                   []*wal.Log
	syncStop               chan struct{}
	syncDone               chan struct{}
	ckptKick               chan struct{}
	ckptStop               chan struct{}
	ckptDone               chan struct{}
	autoCheckpoints        atomic.Uint64
	autoCheckpointFailures atomic.Uint64
	closeOnce              sync.Once
	closeErr               error
}

// Build constructs and deploys a SmartStore over the given corpus. An
// invalid configuration — fan-out bounds violating 2 ≤ m ≤ M/2, a shard
// count exceeding the unit count — returns an error rather than
// panicking, so configuration crossing a trust boundary (daemon flags)
// cannot crash the process.
func Build(files []*File, cfg Config) (*Store, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("smartstore: empty corpus")
	}
	if cfg.Units == 0 {
		cfg.Units = 60
	}
	if cfg.Units < 1 || cfg.Units > len(files) {
		return nil, fmt.Errorf("smartstore: %d units invalid for %d files", cfg.Units, len(files))
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Attrs == nil {
		cfg.Attrs = trace.DefaultQueryAttrs()
	}
	eng, err := engine.Build(files, cfg.engineConfig())
	if err != nil {
		return nil, fmt.Errorf("smartstore: %w", err)
	}
	s := &Store{cfg: cfg, eng: eng}
	if cfg.DataDir != "" {
		if err := s.initDataDir(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Save persists the store's deployment — every shard's partition, the
// shard assignment, the normalizer, and the construction configuration
// — to w. The capture takes every shard's read lock (in the engine's
// deadlock-free total order) before touching any shard, so a snapshot
// taken during a concurrent InsertBatch is never torn: it observes
// either all of a batch or none of it. A store restored with Load
// answers queries identically: every acknowledged write is already
// visible, so the snapshot's files are the whole answer state
// (DESIGN.md §7).
//
// Save writes to an arbitrary sink (an export, a backup) and does NOT
// truncate a durable store's write-ahead logs — only Checkpoint, which
// pairs the snapshot write with the truncation inside one lock hold,
// may discard log records.
func (s *Store) Save(w io.Writer) error {
	return s.eng.Snapshot().Write(w)
}

// Load restores a store previously written with Save. The cluster
// deployments (server mapping, replicas) are regenerated from cfg's
// seed; cfg's structural fields (Units, Attrs, Shards, fan-out,
// threshold) are taken from the snapshot and ignored in cfg. Every
// shard resumes the snapshot's epoch, so a replication follower loaded
// from its leader's snapshot pulls the leader's log from exactly where
// the snapshot ends (DESIGN.md §11).
//
// With cfg.DataDir set, the loaded store becomes durable: the data dir
// is freshly initialized (it must not already hold a deployment) with
// an initial checkpoint and empty per-shard WALs — the path for
// seeding a durable daemon from an exported snapshot, and for a durable
// follower, which then recovers locally on restart. To recover a data
// dir that already has state, use Open.
func Load(r io.Reader, cfg Config) (*Store, error) {
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	s, err := restoreFromSnapshot(snap, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		if err := s.initDataDir(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Open recovers a durable store from cfg.DataDir: the checkpoint
// snapshot is loaded, each shard's WAL tail — every mutation
// acknowledged since that checkpoint — is replayed independently and
// in parallel past the snapshot's per-shard epoch truncation points,
// and a fresh checkpoint is written before the store is returned. No
// acknowledged mutation is lost across a crash, torn final records are
// discarded, and a multi-shard insert batch that did not reach every
// target's log (never acknowledged) is dropped atomically.
//
// Like Load, cfg's structural fields (Units, Attrs, Shards, fan-out,
// threshold) come from the snapshot; cfg supplies the deployment knobs
// (Seed, Mode, ...) and the durability policy.
func Open(cfg Config) (*Store, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("smartstore: Open needs Config.DataDir")
	}
	sweepStaleTemp(cfg.DataDir)
	f, err := os.Open(snapshotPath(cfg.DataDir))
	if err != nil {
		return nil, fmt.Errorf("smartstore: data dir %s has no snapshot (initialize it with Build): %w",
			cfg.DataDir, err)
	}
	snap, err := snapshot.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	s, err := restoreFromSnapshot(snap, cfg)
	if err != nil {
		return nil, err
	}
	logs, tails, err := openLogs(cfg.DataDir, s.eng.Shards(), cfg.Durability, cfg.WALSegmentBytes)
	if err != nil {
		return nil, err
	}
	if _, err := s.eng.Recover(tails, snap.ShardEpochs()); err != nil {
		closeLogs(logs)
		return nil, fmt.Errorf("smartstore: %w", err)
	}
	if err := s.eng.AttachWAL(logs); err != nil {
		closeLogs(logs)
		return nil, fmt.Errorf("smartstore: %w", err)
	}
	s.logs = logs
	// Checkpoint the recovered state immediately when the logs held
	// anything: the replayed tail folds into the snapshot and the logs
	// restart empty, so this boot's batch ids cannot collide with
	// records from the last one. After a clean shutdown every tail is
	// empty — the snapshot is already current and no batch id can
	// linger, so the boot skips the redundant full-store write.
	for _, tail := range tails {
		if len(tail) > 0 {
			if err := s.Checkpoint(); err != nil {
				closeLogs(logs)
				return nil, err
			}
			break
		}
	}
	s.startSyncLoop()
	s.startCheckpointLoop()
	return s, nil
}

// restoreFromSnapshot is the one restore pipeline of Load and Open:
// rebuild the shard trees, resume the snapshot's per-shard epochs, adopt
// its structural fields over cfg's, and regenerate the deployments from
// cfg's seed. Any change to how a snapshot maps onto a store belongs
// here, so export (Load), replication bootstrap (Load of a leader's
// snapshot) and crash recovery (Open) can never restore differently.
func restoreFromSnapshot(snap *snapshot.Snapshot, cfg Config) (*Store, error) {
	cfg.Shards = snap.ShardCount()
	cfg.Attrs = snap.Attrs
	eng, err := engine.Restore(snap, cfg.engineConfig())
	if err != nil {
		return nil, fmt.Errorf("smartstore: %w", err)
	}
	return &Store{cfg: cfg, eng: eng}, nil
}

// Epoch returns the store's composed mutation epoch: the sum of the
// per-shard epochs, each of which increments on every mutation that can
// change a query's answer — inserts, effectual deletes and modifies
// (no-ops leave it untouched). The sum is monotonic for any
// observer, so a cache keyed on query content can pair each entry with
// the epoch observed before computing it and treat any mismatch as
// invalidation.
func (s *Store) Epoch() uint64 { return s.eng.Epoch() }

// ShardEpochs snapshots every shard's mutation epoch in shard order.
// Each entry is individually monotonic, so a result cache can pair each
// entry with the epochs of exactly the shards the query targeted
// (Result.Shards) and survive writes that landed elsewhere.
func (s *Store) ShardEpochs() []uint64 { return s.eng.ShardEpochs() }

// PlacementInfo summarizes the store's semantic placement for a
// federating layer: the placement attributes, the file-count-weighted
// centroid in raw attribute units, and the raw normalization bounds per
// attribute.
type PlacementInfo = engine.Placement

// Placement reports the store's placement summary — what a gateway
// reads at bootstrap to route writes and off-line queries by
// frozen-centroid distance, one level above the engine's shard routing.
func (s *Store) Placement() PlacementInfo { return s.eng.Placement() }

// QueryReport carries the accounting of one operation: virtual latency
// in seconds, network messages, routing hops (groups beyond the first),
// and version-chain work. For operations fanned out across shards,
// latency is the slowest shard (they run in parallel) while messages
// and per-node work sum.
type QueryReport = engine.Report

// Stats summarizes the deployment and ShardStats is one shard's slice
// of it; both are the engine's own structs, which also go on the wire.
type (
	Stats      = engine.Stats
	ShardStats = engine.ShardStats
)

// Stats reports structural statistics of the store, aggregated across
// shards with a per-shard breakdown.
func (s *Store) Stats() Stats { return s.eng.Stats() }

// GenerateTrace synthesizes one of the paper's workloads ("HP", "MSN",
// "EECS") with nFiles sampled files, deterministic in seed.
func GenerateTrace(name string, nFiles int, seed uint64) (*TraceSet, error) {
	spec, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(nFiles, seed), nil
}

// FileByID returns a copy of the stored file with the given id, routed
// directly to its owning shard through the id index.
func (s *Store) FileByID(id uint64) (File, bool) {
	return s.eng.FileByID(id)
}

// MaxFileID returns the largest file id currently stored, or 0 for an
// empty deployment — the base a serving layer allocates fresh ids from.
// The maximum is maintained incrementally alongside the engine's id →
// shard index, so repeated calls are O(1) rather than a full-corpus
// scan.
func (s *Store) MaxFileID() uint64 { return s.eng.MaxFileID() }

// Mode returns the path a Query whose Options.Mode is ModeDefault runs
// on: ModeOnline when Config.Mode says so, ModeOffline otherwise.
func (s *Store) Mode() QueryMode {
	if s.cfg.Mode == ModeOnline {
		return ModeOnline
	}
	return ModeOffline
}

// Shards returns the engine shard count.
func (s *Store) Shards() int { return s.eng.Shards() }

// ParseAttr resolves an attribute's short name ("size", "ctime",
// "mtime", "atime", "read_bytes", "write_bytes", "access_freq") to its
// Attr — the inverse of Attr.String, shared by the wire format and the
// CLIs.
func ParseAttr(name string) (Attr, error) { return metadata.ParseAttr(name) }

// Instrument attaches the store's metric sinks and registers its
// families on reg. The serving layer calls it once when it builds its
// registry; the store runs uninstrumented (and unmeasured — every hook
// is a nil check) until then. Histograms are shared across shards so
// the exposition shows one distribution per subsystem; per-shard skew
// is carried by the labeled counters.
func (s *Store) Instrument(reg *obs.Registry) {
	eo := &engine.Obs{
		ShardQueryNs:  &obs.Histogram{},
		ShardsVisited: &obs.Counter{},
		ShardsPruned:  &obs.Counter{},
		ShardInserts:  make([]*obs.Counter, s.Shards()),
		CkptLockNs:    &obs.Histogram{},
		CkptPersistNs: &obs.Histogram{},
		CkptRetireNs:  &obs.Histogram{},
	}
	reg.RegisterHistogram("smartstore_shard_query_duration_seconds", "",
		"Per-shard query execution wall time, one observation per shard per fan-out.",
		obs.ScaleNanos, eo.ShardQueryNs)
	reg.RegisterCounter("smartstore_shards_visited_total", "",
		"Fan-out shard visits that executed the query.", eo.ShardsVisited)
	reg.RegisterCounter("smartstore_shards_pruned_total", "",
		"Fan-out shard visits pruned by root MBR/Bloom rejection.", eo.ShardsPruned)
	for i := range eo.ShardInserts {
		c := &obs.Counter{}
		eo.ShardInserts[i] = c
		reg.RegisterCounter("smartstore_shard_inserts_total",
			obs.Labels("shard", strconv.Itoa(i)),
			"Files routed to each shard by semantic placement.", c)
	}
	for _, p := range []struct {
		phase string
		hist  *obs.Histogram
	}{
		{"lock", eo.CkptLockNs},
		{"persist", eo.CkptPersistNs},
		{"retire", eo.CkptRetireNs},
	} {
		reg.RegisterHistogram("smartstore_checkpoint_phase_duration_seconds",
			obs.Labels("phase", p.phase),
			"Checkpoint phase durations: lock (capture+rotate under shard locks), persist (snapshot encode+fsync), retire (sealed-segment deletion).",
			obs.ScaleNanos, p.hist)
	}
	s.eng.SetObs(eo)

	reg.RegisterGaugeFunc("smartstore_files", "",
		"Files currently stored.", func() float64 { return float64(s.Stats().Files) })
	reg.RegisterGaugeFunc("smartstore_epoch", "",
		"Composed mutation epoch (sum of per-shard epochs; monotonic).",
		func() float64 { return float64(s.Epoch()) })
	reg.RegisterGaugeFunc("smartstore_shards", "",
		"Engine shard count.", func() float64 { return float64(s.Shards()) })

	if s.logs == nil {
		return
	}
	wo := &wal.Observer{
		AppendNs:   &obs.Histogram{},
		FsyncNs:    &obs.Histogram{},
		Fsyncs:     &obs.Counter{},
		GroupBatch: &obs.Histogram{},
	}
	for _, l := range s.logs {
		l.SetObserver(wo)
	}
	reg.RegisterHistogram("smartstore_wal_append_duration_seconds", "",
		"WAL append latency including the group-commit fsync wait.",
		obs.ScaleNanos, wo.AppendNs)
	reg.RegisterHistogram("smartstore_wal_fsync_duration_seconds", "",
		"Duration of serving-path WAL fsyncs.", obs.ScaleNanos, wo.FsyncNs)
	reg.RegisterCounter("smartstore_wal_fsyncs_total", "",
		"Serving-path WAL fsyncs issued.", wo.Fsyncs)
	reg.RegisterHistogram("smartstore_wal_group_commit_batch_size", "",
		"Appends acknowledged per group-commit fsync.", 1, wo.GroupBatch)
	reg.RegisterGaugeFunc("smartstore_wal_bytes", "",
		"Total valid WAL length across shards.", func() float64 { return float64(s.WALStats().Bytes) })
	reg.RegisterGaugeFunc("smartstore_wal_segments", "",
		"Live WAL segment files across shards.", func() float64 { return float64(s.WALStats().Segments) })
	reg.RegisterCounterFunc("smartstore_wal_rotations_total", "",
		"WAL segment rotations (capacity- and checkpoint-triggered).",
		func() float64 { return float64(s.WALStats().Rotations) })
	reg.RegisterCounterFunc("smartstore_wal_group_commits_total", "",
		"Group-commit fsync batches issued.", func() float64 { return float64(s.WALStats().GroupCommits) })
	reg.RegisterCounterFunc("smartstore_wal_grouped_records_total", "",
		"Appends acknowledged by group-commit batches.", func() float64 { return float64(s.WALStats().GroupedRecords) })
	reg.RegisterCounterFunc("smartstore_checkpoints_auto_total", "",
		"Checkpoints triggered by the WAL-size threshold.", func() float64 { return float64(s.autoCheckpoints.Load()) })
	reg.RegisterCounterFunc("smartstore_checkpoint_failures_total", "",
		"Auto-triggered checkpoints that failed.", func() float64 { return float64(s.autoCheckpointFailures.Load()) })
}
