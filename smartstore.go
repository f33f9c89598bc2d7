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
// PointQuery, RangeQuery and TopKQuery remain as thin compatibility
// wrappers over Do.
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metadata"
	"repro/internal/semtree"
	"repro/internal/simnet"
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

// Mode selects the complex-query execution path of §3.3–3.4.
type Mode int

const (
	// OffLine routes a query directly to its most-correlated semantic
	// group using locally replicated index-unit vectors (§3.4). Fast and
	// message-frugal; recall bounded by grouping quality.
	OffLine Mode = iota
	// OnLine multicasts the query to every first-level group host
	// (§3.3). Exact on the propagated snapshot; more messages.
	OnLine
)

// Config parameterizes Build.
type Config struct {
	// Shards is the number of independent engine shards the deployment
	// is partitioned into. Each shard owns one semantic R-tree, its
	// cluster deployment, virtual-time state and lock, so
	// operations on different shards never contend; queries fan out to
	// the relevant shards in parallel and merge. Default 1, which
	// reproduces the unsharded store exactly. Must not exceed Units.
	Shards int
	// Units is the number of storage units (metadata servers), summed
	// across shards. The prototype evaluation uses 60. Default 60.
	Units int
	// Attrs is the grouping predicate — the d-attribute subset of
	// special interest (§3.1.1). Default: mtime, read and write volume
	// (the paper's example query dimensions).
	Attrs []Attr
	// Mode is the default complex-query path. Default OffLine.
	Mode Mode
	// Versioning enables §4.4 consistency versioning.
	Versioning bool
	// VersionRatio is the modification-to-version ratio (§5.6; 0 → 4).
	VersionRatio int
	// LazyUpdateThreshold is the replica-refresh change fraction
	// (§3.4; 0 → 0.05).
	LazyUpdateThreshold float64
	// MaxChildren / MinChildren bound semantic R-tree fan-out (§4.1).
	MaxChildren, MinChildren int
	// BaseThreshold overrides the sampled level-1 admission threshold.
	BaseThreshold float64
	// Seed drives all randomized decisions. Deterministic per seed.
	Seed uint64
	// VirtualScale maps the in-memory sample onto a (much larger)
	// virtual population for latency modelling; see DESIGN.md §4.
	VirtualScale float64
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
		Online: cfg.Mode == OnLine,
		Tree: semtree.Config{
			Attrs:         cfg.Attrs,
			BaseThreshold: cfg.BaseThreshold,
			MaxChildren:   cfg.MaxChildren,
			MinChildren:   cfg.MinChildren,
		},
		Cluster: cluster.Config{
			Versioning:          cfg.Versioning,
			VersionRatio:        cfg.VersionRatio,
			LazyUpdateThreshold: cfg.LazyUpdateThreshold,
			Seed:                cfg.Seed,
			VirtualScale:        cfg.VirtualScale,
		},
		Norm:               cfg.Normalizer,
		OfflineGroupBudget: cfg.OfflineGroupBudget,
	}
}

// Store is a deployed SmartStore instance.
//
// A Store is a facade over the sharded engine (internal/engine): the
// deployment is partitioned into Config.Shards independent shards, each
// with one semantic R-tree, its cluster deployment, virtual-time state
// and lock. A Store is safe for concurrent use — queries take
// per-shard shared locks and fan out in parallel, mutations route to
// their owning shard (multi-shard batches lock all target shards in a
// deadlock-free total order), and operations on different shards never
// contend on a lock. With Shards: 1 (the default) the engine executes
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

// Epoch returns the store's composed mutation epoch: the sum of the
// per-shard epochs, each of which increments on every mutation that can
// change a query's answer — inserts, effectual deletes, modifies, and
// flushes (no-ops leave it untouched). The sum is monotonic for any
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

// Insert routes a new file's metadata to its semantically placed shard.
// Like InsertBatch, it rejects a zero id or an id that is already
// stored — the serving layer treats ids as unique, so every insert path
// enforces the invariant.
func (s *Store) Insert(f *File) (QueryReport, error) {
	return s.InsertBatch([]*File{f})
}

// InsertBatch inserts files in one admission: the whole batch is
// validated first (a violation rejects the batch before anything is
// inserted; validation is serialized with every other insert's routing
// phase, so the uniqueness check cannot race another writer), files
// are routed to shards by semantic placement, and every target shard
// is write-locked before any insert lands — so each shard, and any
// snapshot (which locks all shards), observes the batch atomically. A
// query fanning out across shards takes per-shard read locks
// independently and therefore sees per-shard, not cross-shard, batch
// atomicity. Per-shard sub-batches execute in parallel, and each
// affected shard bumps its epoch once. The returned report aggregates
// virtual latency (max across shards, summed within each shard's
// sub-batch) and messages over the whole batch.
func (s *Store) InsertBatch(files []*File) (QueryReport, error) {
	rep, err := s.eng.InsertBatch(files)
	if err != nil {
		return QueryReport{}, fmt.Errorf("smartstore: %w", err)
	}
	s.noteMutation()
	return rep, nil
}

// Delete removes a file by id, reporting whether it existed. The id →
// shard index routes the delete directly to the owning shard; the
// shard's epoch advances only when a file was actually removed — a
// no-op delete must not invalidate query caches. On a durable store
// the delete is logged before it applies; a returned error means the
// WAL rejected the record and nothing changed.
func (s *Store) Delete(id uint64) (QueryReport, bool, error) {
	rep, found, err := s.eng.Delete(id)
	if err != nil {
		return QueryReport{}, false, fmt.Errorf("smartstore: %w", err)
	}
	s.noteMutation()
	return rep, found, nil
}

// Modify updates an existing file's attributes on its owning shard. The
// epoch advances only when the file existed. On a durable store the
// modify is logged before it applies; a returned error means the WAL
// rejected the record and nothing changed.
func (s *Store) Modify(f *File) (QueryReport, bool, error) {
	rep, found, err := s.eng.Modify(f)
	if err != nil {
		return QueryReport{}, false, fmt.Errorf("smartstore: %w", err)
	}
	s.noteMutation()
	return rep, found, nil
}

// ModifyAttrs sets the named attributes of an existing file and keeps
// the rest, merging under the owning shard's write lock — the form a
// partial update takes when other writers may be modifying the same
// file. Logging and errors are Modify's.
func (s *Store) ModifyAttrs(id uint64, attrs map[Attr]float64) (QueryReport, bool, error) {
	rep, found, err := s.eng.ModifyAttrs(id, attrs)
	if err != nil {
		return QueryReport{}, false, fmt.Errorf("smartstore: %w", err)
	}
	s.noteMutation()
	return rep, found, nil
}

// Flush propagates all pending changes to replicas on every shard (lazy
// updates are otherwise threshold-driven, §3.4). Each shard's epoch
// advances only when that shard had something pending — propagating
// nothing changes no query's answer. On a durable store an effectual
// flush is logged before propagating (so recovery propagates at the
// same point of the log and replays the same epochs); a returned error
// means a WAL append failed and that shard's replicas were left
// untouched.
func (s *Store) Flush() error {
	if err := s.eng.Flush(); err != nil {
		return fmt.Errorf("smartstore: %w", err)
	}
	s.noteMutation()
	return nil
}

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

// Mode returns the store's configured default query execution path; a
// Query whose Options.Mode is ModeDefault runs on it.
func (s *Store) Mode() Mode { return s.cfg.Mode }

// Shards returns the engine shard count.
func (s *Store) Shards() int { return s.eng.Shards() }

// ParseAttr resolves an attribute's short name ("size", "ctime",
// "mtime", "atime", "read_bytes", "write_bytes", "access_freq") to its
// Attr — the inverse of Attr.String, shared by the wire format and the
// CLIs.
func ParseAttr(name string) (Attr, error) { return metadata.ParseAttr(name) }

// DefaultCostModel exposes the calibrated virtual cost model so callers
// can reason about reported latencies.
func DefaultCostModel() simnet.CostModel { return simnet.DefaultCostModel() }
