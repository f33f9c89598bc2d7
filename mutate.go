package smartstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// ErrInvalidBatch tags InsertBatch's validation failures (a zero or
// duplicate id) as ErrInvalidQuery tags Do's; any other InsertBatch
// error is the store's own — on a durable store, a WAL failure.
var ErrInvalidBatch = engine.ErrInvalidBatch

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

// noteMutation is the post-mutation hook of WAL-size-triggered
// checkpointing: cheap (one atomic-free size sum on a durable store,
// nothing otherwise), it kicks the checkpoint loop when the logs have
// outgrown Config.CheckpointBytes.
func (s *Store) noteMutation() {
	if s.ckptKick == nil {
		return
	}
	if s.walBytes() < s.cfg.CheckpointBytes {
		return
	}
	select {
	case s.ckptKick <- struct{}{}:
	default: // a kick is already pending; the loop coalesces them
	}
}

// Durability selects when write-ahead-log appends reach stable storage
// on a durable store (Config.DataDir set): it is the WAL's own sync
// policy.
type Durability = wal.SyncPolicy

const (
	// DurabilityAlways fsyncs every WAL append before the mutation is
	// acknowledged — the default, and the only policy that survives
	// power loss with zero acknowledged-mutation loss.
	DurabilityAlways = wal.SyncAlways
	// DurabilityInterval batches fsyncs on a background timer
	// (Config.SyncInterval): full throughput, bounded loss window on
	// power failure, zero loss on a process crash.
	DurabilityInterval = wal.SyncInterval
	// DurabilityNever leaves flushing entirely to the OS page cache:
	// zero loss on a process crash, no guarantee on power failure.
	DurabilityNever = wal.SyncNever
)

// ParseDurability resolves a policy's flag spelling ("always",
// "interval", "never") — the inverse of String, shared with the
// daemon's -fsync flag.
func ParseDurability(s string) (Durability, error) { return wal.ParseSyncPolicy(s) }

// snapshotFileName is the recovery-base snapshot inside a data dir;
// shard WAL segment directories sit beside it.
const snapshotFileName = "snapshot.snap"

func snapshotPath(dir string) string { return filepath.Join(dir, snapshotFileName) }

// walDirName is shard i's segment directory inside the data dir.
func walDirName(shard int) string { return fmt.Sprintf("shard-%04d.wal", shard) }

// DataDirInitialized reports whether dir already holds a durable
// store's recovery base — the operator-facing probe the daemon uses to
// pick Open (recover) over Build (bootstrap).
func DataDirInitialized(dir string) bool {
	_, err := os.Stat(snapshotPath(dir))
	return err == nil
}

// initDataDir makes a freshly built (or freshly loaded) store durable:
// it creates the data dir, opens one empty WAL per shard, and writes
// the initial checkpoint that recovery will replay WAL tails against.
// A data dir that already holds a snapshot or logged records is
// refused — re-initializing it would silently orphan the previous
// deployment's state; recover it with Open instead.
func (s *Store) initDataDir() error {
	dir := s.cfg.DataDir
	if DataDirInitialized(dir) {
		return fmt.Errorf("smartstore: data dir %s already initialized (recover it with Open)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("smartstore: %w", err)
	}
	sweepStaleTemp(dir)
	logs, tails, err := openLogs(dir, s.eng.Shards(), s.cfg.Durability, s.cfg.WALSegmentBytes)
	if err != nil {
		return err
	}
	for i, tail := range tails {
		if len(tail) > 0 {
			closeLogs(logs)
			return fmt.Errorf("smartstore: data dir %s holds %d logged records for shard %d (recover it with Open)",
				dir, len(tail), i)
		}
	}
	if err := s.eng.AttachWAL(logs); err != nil {
		closeLogs(logs)
		return fmt.Errorf("smartstore: %w", err)
	}
	s.logs = logs
	if err := s.Checkpoint(); err != nil {
		closeLogs(logs)
		return err
	}
	s.startSyncLoop()
	s.startCheckpointLoop()
	return nil
}

// openLogs opens (creating if absent) one segmented WAL per shard under
// dir, returning the logs and their scanned tails.
func openLogs(dir string, shards int, policy wal.SyncPolicy, segmentBytes int64) ([]*wal.Log, [][]wal.Record, error) {
	logs := make([]*wal.Log, shards)
	tails := make([][]wal.Record, shards)
	for i := 0; i < shards; i++ {
		l, tail, err := wal.Open(filepath.Join(dir, walDirName(i)), i, policy,
			wal.Options{SegmentBytes: segmentBytes})
		if err != nil {
			closeLogs(logs[:i])
			return nil, nil, fmt.Errorf("smartstore: %w", err)
		}
		logs[i] = l
		tails[i] = tail
	}
	return logs, tails, nil
}

func closeLogs(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// Checkpoint persists the store's current state to the data dir and
// retires the WAL segments the snapshot covers. The protocol is
// lock-light: the capture (a memory copy) and a per-shard segment
// rotation happen under the all-shard read locks — taken in the
// engine's total lock order, so a checkpoint racing a multi-shard
// batch observes all of it or none of it — and the expensive part (gob
// encode, fsync, rename) runs after the locks are released, with
// writers committing into the fresh segments concurrently. Only once
// the snapshot is durable are the sealed segments deleted; a crash
// anywhere in between recovers from whichever snapshot the rename left
// in place, with leftover records skipped via the snapshot's per-shard
// epoch truncation points.
func (s *Store) Checkpoint() error {
	if s.cfg.DataDir == "" {
		return fmt.Errorf("smartstore: Checkpoint needs Config.DataDir")
	}
	return s.eng.Checkpoint(func(snap *snapshot.Snapshot) error {
		return writeSnapshotAtomic(s.cfg.DataDir, snap)
	})
}

// startCheckpointLoop runs the WAL-size-triggered checkpointer: after
// every mutation the store compares the total WAL size against
// Config.CheckpointBytes and, past it, kicks this loop (non-blocking,
// coalescing) to fold the logs into a snapshot. Disabled when
// CheckpointBytes is zero.
func (s *Store) startCheckpointLoop() {
	if s.cfg.CheckpointBytes <= 0 {
		return
	}
	s.ckptKick = make(chan struct{}, 1)
	s.ckptStop = make(chan struct{})
	s.ckptDone = make(chan struct{})
	go func() {
		defer close(s.ckptDone)
		for {
			select {
			case <-s.ckptKick:
				// Re-check under the kick: a periodic checkpoint may
				// have drained the logs between the kick and now.
				if s.walBytes() < s.cfg.CheckpointBytes {
					continue
				}
				if err := s.Checkpoint(); err == nil {
					s.autoCheckpoints.Add(1)
				} else {
					// The WAL still holds everything and the next
					// mutation's kick retries; the failure counter
					// (WALStats, /v1/stats) is how an operator learns
					// auto-checkpoints are failing while the log grows.
					s.autoCheckpointFailures.Add(1)
				}
			case <-s.ckptStop:
				return
			}
		}
	}()
}

// walBytes sums the live WAL size across shards.
func (s *Store) walBytes() int64 {
	var total int64
	for _, l := range s.logs {
		total += l.Size()
	}
	return total
}

// sweepStaleTemp removes snapshot temp files orphaned by a crash
// mid-checkpoint — the rename never happened, so they are garbage that
// would otherwise accumulate a full store's size per crash.
func sweepStaleTemp(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, snapshotFileName+".tmp*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}

// writeSnapshotAtomic lands a snapshot with the standard
// write-tmp/fsync/rename/fsync-dir sequence, so the data dir always
// holds exactly one complete snapshot.
func writeSnapshotAtomic(dir string, snap *snapshot.Snapshot) error {
	tmp, err := os.CreateTemp(dir, snapshotFileName+".tmp*")
	if err != nil {
		return fmt.Errorf("smartstore: %w", err)
	}
	if err := snap.Write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("smartstore: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("smartstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapshotPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("smartstore: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync pins the rename; best-effort — some
		// platforms refuse to sync directories.
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// startSyncLoop runs the background fsync ticker of
// DurabilityInterval.
func (s *Store) startSyncLoop() {
	if s.cfg.Durability != DurabilityInterval {
		return
	}
	interval := s.cfg.SyncInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s.syncStop = make(chan struct{})
	s.syncDone = make(chan struct{})
	go func() {
		defer close(s.syncDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, l := range s.logs {
					_ = l.Sync() // a failed periodic sync retries next tick
				}
			case <-s.syncStop:
				return
			}
		}
	}()
}

// Close shuts a durable store down cleanly: the background fsync loop
// stops, a final checkpoint folds the WAL tails into the snapshot, and
// the logs are closed. Close is idempotent and a no-op on an in-memory
// store. Mutating a closed durable store fails at the WAL. To simulate
// a crash (e.g. in recovery tests), drop the store without calling
// Close.
func (s *Store) Close() error {
	if s.logs == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		if s.syncStop != nil {
			close(s.syncStop)
			<-s.syncDone
		}
		if s.ckptStop != nil {
			close(s.ckptStop)
			<-s.ckptDone
		}
		s.closeErr = s.Checkpoint()
		for _, l := range s.logs {
			if err := l.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// WALSizes returns each shard's current write-ahead-log length in
// bytes across its live segments (nil on an in-memory store) — an
// operational signal for checkpoint scheduling.
func (s *Store) WALSizes() []int64 {
	if s.logs == nil {
		return nil
	}
	out := make([]int64, len(s.logs))
	for i, l := range s.logs {
		out[i] = l.Size()
	}
	return out
}

// WALStats is the write-ahead logs' operational counters — wal.Stats,
// which Store.WALStats sums across shards.
type WALStats = wal.Stats

// WALStats snapshots the durable store's log counters (zero value on an
// in-memory store).
func (s *Store) WALStats() WALStats {
	var out WALStats
	if s.logs == nil {
		return out
	}
	for _, l := range s.logs {
		st := l.Stats()
		out.Segments += st.Segments
		out.Bytes += st.Bytes
		out.DurableBytes += st.DurableBytes
		out.GroupCommits += st.GroupCommits
		out.GroupedRecords += st.GroupedRecords
		out.Rotations += st.Rotations
	}
	out.AutoCheckpoints = s.autoCheckpoints.Load()
	out.AutoCheckpointFailures = s.autoCheckpointFailures.Load()
	return out
}

// Durable reports whether the store has a data dir (and therefore
// write-ahead logs) attached — a lock-free probe for serving layers
// that only want WAL statistics when they exist.
func (s *Store) Durable() bool { return s.logs != nil }
