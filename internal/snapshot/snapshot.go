// Package snapshot persists and restores a SmartStore deployment: the
// storage-unit partition (which files live on which metadata server),
// the shard assignment (which storage units live on which engine
// shard), the fitted attribute normalizer, and the construction
// configuration. Restoring rebuilds each shard's semantic R-tree
// deterministically from the persisted partition, so a restored store
// answers queries identically to the one that was saved.
//
// The format is Go gob over a versioned envelope, suitable for the
// metadata checkpointing a next-generation file system would perform at
// reconfiguration points (§4.4 removes versions "when reconfiguring
// index units" — a natural snapshot boundary). The envelope holds the
// per-shard unit partition and each shard's mutation epoch at capture
// — the shard's write-ahead-log truncation point, so recovery
// (snapshot + per-shard WAL tail replay, DESIGN.md §7) skips records
// the snapshot already contains.
package snapshot

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/metadata"
	"repro/internal/semtree"
)

// FormatVersion is the version snapshots are written with, and the
// only one Read accepts.
const FormatVersion = 3

// Snapshot is the persisted form of a deployment.
type Snapshot struct {
	Version int
	// Attrs is the grouping predicate of the persisted trees.
	Attrs []metadata.Attr
	// BaseThreshold, MaxChildren, MinChildren mirror semtree.Config.
	BaseThreshold float64
	MaxChildren   int
	MinChildren   int
	// NormLo/NormHi/NormFitted persist the fitted normalizer's state
	// explicitly (its fitted flag is unexported and would be lost to
	// gob otherwise).
	NormLo, NormHi [metadata.NumAttrs]float64
	NormFitted     bool
	// Shards holds each shard's storage-unit partition — the shard
	// assignment round-trips, so a restored engine keeps the same
	// placement.
	Shards []ShardRecord
}

// ShardRecord is one shard's persisted partition.
type ShardRecord struct {
	Units []UnitRecord
	// Epoch is the shard's mutation epoch at capture — the shard's WAL
	// truncation point: recovery replays only log records whose epoch
	// exceeds it.
	Epoch uint64
}

// UnitRecord is one storage unit's persisted content.
type UnitRecord struct {
	ID    int
	Files []metadata.File
}

// Capture extracts a single-shard snapshot from a built tree with a
// zero epoch.
func Capture(t *semtree.Tree) *Snapshot {
	return CaptureShards([]*semtree.Tree{t}, nil)
}

// CaptureShards extracts a snapshot from one tree per shard, stamping
// each shard record with its mutation epoch at capture (epochs may be
// nil for zero epochs — a deployment without a WAL). All trees must
// share a grouping predicate, configuration and normalizer (the engine
// guarantees this); the shared state is captured from the first.
func CaptureShards(trees []*semtree.Tree, epochs []uint64) *Snapshot {
	if len(trees) == 0 {
		panic("snapshot: no trees to capture")
	}
	t0 := trees[0]
	s := &Snapshot{
		Version:       FormatVersion,
		Attrs:         append([]metadata.Attr(nil), t0.Attrs...),
		BaseThreshold: t0.Config.BaseThreshold,
		MaxChildren:   t0.Config.MaxChildren,
		MinChildren:   t0.Config.MinChildren,
		NormLo:        t0.Norm.Lo,
		NormHi:        t0.Norm.Hi,
		NormFitted:    t0.Norm.Fitted(),
		Shards:        make([]ShardRecord, len(trees)),
	}
	for i, t := range trees {
		if epochs != nil {
			s.Shards[i].Epoch = epochs[i]
		}
		for _, u := range t.Units() {
			rec := UnitRecord{ID: u.ID, Files: make([]metadata.File, len(u.Files))}
			for j, f := range u.Files {
				rec.Files[j] = *f
			}
			s.Shards[i].Units = append(s.Shards[i].Units, rec)
		}
	}
	return s
}

// ShardEpochs returns each persisted shard's mutation epoch at capture
// — the per-shard WAL truncation points.
func (s *Snapshot) ShardEpochs() []uint64 {
	out := make([]uint64, len(s.Shards))
	for i, sh := range s.Shards {
		out[i] = sh.Epoch
	}
	return out
}

// Write encodes the snapshot to w.
func (s *Snapshot) Write(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Read decodes a snapshot from r, refusing any format version but
// FormatVersion.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("snapshot: format version %d, want %d", s.Version, FormatVersion)
	}
	if len(s.Shards) == 0 {
		return nil, fmt.Errorf("snapshot: no shards")
	}
	for i, sh := range s.Shards {
		if len(sh.Units) == 0 {
			return nil, fmt.Errorf("snapshot: shard %d has no storage units", i)
		}
	}
	return &s, nil
}

// ShardCount returns the number of persisted shards.
func (s *Snapshot) ShardCount() int { return len(s.Shards) }

// Restore rebuilds the semantic R-tree of a single-shard snapshot. It
// errors when the snapshot holds more than one shard — multi-shard
// callers use RestoreShards.
func (s *Snapshot) Restore() (*semtree.Tree, error) {
	trees, err := s.RestoreShards()
	if err != nil {
		return nil, err
	}
	if len(trees) != 1 {
		return nil, fmt.Errorf("snapshot: %d shards, want 1 (use RestoreShards)", len(trees))
	}
	return trees[0], nil
}

// RestoreShards rebuilds one semantic R-tree per persisted shard. Each
// tree is structurally regenerated (grouping is deterministic given the
// same units, normalizer and config), so every persisted file is
// findable in its restored shard.
func (s *Snapshot) RestoreShards() ([]*semtree.Tree, error) {
	if err := (semtree.Config{
		BaseThreshold: s.BaseThreshold,
		MaxChildren:   s.MaxChildren,
		MinChildren:   s.MinChildren,
	}).Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: persisted config invalid: %w", err)
	}
	norm := metadata.RestoreNormalizer(s.NormLo, s.NormHi, s.NormFitted)
	cfg := semtree.Config{
		Attrs:         s.Attrs,
		BaseThreshold: s.BaseThreshold,
		MaxChildren:   s.MaxChildren,
		MinChildren:   s.MinChildren,
	}
	trees := make([]*semtree.Tree, len(s.Shards))
	for i, sh := range s.Shards {
		units := make([]*semtree.StorageUnit, len(sh.Units))
		for j, rec := range sh.Units {
			files := make([]*metadata.File, len(rec.Files))
			for k := range rec.Files {
				f := rec.Files[k]
				files[k] = &f
			}
			units[j] = semtree.NewStorageUnit(rec.ID, files)
		}
		tree := semtree.Build(units, norm, cfg)
		if err := tree.Validate(); err != nil {
			return nil, fmt.Errorf("snapshot: restored shard %d invalid: %w", i, err)
		}
		trees[i] = tree
	}
	return trees, nil
}

// FileCount returns the number of persisted file records.
func (s *Snapshot) FileCount() int {
	n := 0
	for _, sh := range s.Shards {
		for _, u := range sh.Units {
			n += len(u.Files)
		}
	}
	return n
}
