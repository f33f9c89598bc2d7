package smartstore

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/snapshot"
)

// Save persists the store's deployment — every shard's partition, the
// shard assignment, the normalizer, and the construction configuration
// — to w. The capture takes every shard's read lock (in the engine's
// deadlock-free total order) before touching any shard, so a snapshot
// taken during a concurrent InsertBatch is never torn: it observes
// either all of a batch or none of it. A store restored with Load
// answers queries identically once the saved store was flushed: the
// snapshot carries files, not the deployment's unpropagated changes,
// so those become visible on restore (DESIGN.md §7).
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
// threshold) are taken from the snapshot and ignored in cfg.
//
// With cfg.DataDir set, the loaded store becomes durable: the data dir
// is freshly initialized (it must not already hold a deployment) with
// an initial checkpoint and empty per-shard WALs — the path for
// seeding a durable daemon from an exported snapshot. To recover a
// data dir that already has state, use Open.
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

// restoreFromSnapshot is the shared restore pipeline of Load and Open:
// rebuild the shard trees, adopt the snapshot's structural fields over
// cfg's, and regenerate the deployments from cfg's seed. Any change to
// how a snapshot maps onto a store belongs here, so export (Load) and
// crash recovery (Open) can never restore differently.
func restoreFromSnapshot(snap *snapshot.Snapshot, cfg Config) (*Store, error) {
	trees, err := snap.RestoreShards()
	if err != nil {
		return nil, err
	}
	if cfg.VersionRatio < 0 || cfg.LazyUpdateThreshold < 0 {
		return nil, fmt.Errorf("smartstore: invalid config")
	}
	cfg.Shards = len(trees)
	cfg.Attrs = trees[0].Attrs
	eng, err := engine.Restore(trees, cfg.engineConfig())
	if err != nil {
		return nil, fmt.Errorf("smartstore: %w", err)
	}
	return &Store{cfg: cfg, eng: eng}, nil
}

// anchorFor resolves a path to its stored file record via a fanned-out
// point query and the engine's id index.
func (s *Store) anchorFor(path string) *File {
	ans, err := s.eng.Point(context.Background(), query.Point{Filename: path}, engine.QueryOpts{})
	if err != nil || len(ans.IDs) == 0 {
		return nil
	}
	if f, ok := s.eng.FileByID(ans.IDs[0]); ok {
		return &f
	}
	return nil
}

// topKIDs runs a top-k query over the engine, returning ids and the
// aggregated report.
func (s *Store) topKIDs(attrs []Attr, point []float64, k int) ([]uint64, QueryReport) {
	tq := query.NewTopK(attrs, point, k)
	ans, err := s.eng.TopK(context.Background(), tq,
		engine.QueryOpts{Online: s.cfg.Mode == OnLine})
	if err != nil {
		return nil, QueryReport{}
	}
	return ans.IDs, ans.Report
}

// Correlated returns the k files most semantically correlated with the
// file at the given path — the semantic-prefetching primitive of §1.1
// ("when a file is visited, we can execute a top-k query to find its k
// most correlated files to be prefetched"). It returns ok=false when
// the path is unknown. Anchor resolution and the follow-up top-k run
// as separate engine admissions, so a mutation landing between them is
// observed (the pre-sharding store held one store-wide read lock
// across both); prefetch hints tolerate that staleness by nature.
func (s *Store) Correlated(path string, k int) (ids []uint64, rep QueryReport, ok bool) {
	anchor := s.anchorFor(path)
	if anchor == nil {
		return nil, QueryReport{}, false
	}
	attrs := s.cfg.Attrs
	point := make([]float64, len(attrs))
	for i, a := range attrs {
		point[i] = anchor.Attrs[a]
	}
	// k+1 then drop the anchor itself.
	got, r := s.topKIDs(attrs, point, k+1)
	out := make([]uint64, 0, k)
	for _, id := range got {
		if id != anchor.ID && len(out) < k {
			out = append(out, id)
		}
	}
	return out, r, true
}

// DuplicateCandidates returns, for the file at the given path, up to k
// files whose physical attributes (size, creation time) are nearest —
// the deduplication narrowing of §1.1. The caller confirms true
// duplicates by content comparison.
func (s *Store) DuplicateCandidates(path string, k int) (ids []uint64, rep QueryReport, ok bool) {
	anchor := s.anchorFor(path)
	if anchor == nil {
		return nil, QueryReport{}, false
	}
	attrs := []Attr{AttrSize, AttrCTime}
	point := []float64{anchor.Attrs[AttrSize], anchor.Attrs[AttrCTime]}
	got, r := s.topKIDs(attrs, point, k+1)
	out := make([]uint64, 0, k)
	for _, id := range got {
		if id != anchor.ID && len(out) < k {
			out = append(out, id)
		}
	}
	return out, r, true
}
