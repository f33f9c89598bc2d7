package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// durable reports whether the engine has a write-ahead log attached.
// All shards attach together, so probing the first suffices.
func (e *Engine) durable() bool { return e.shards[0].log != nil }

// AttachWAL wires one write-ahead log per shard into the engine. From
// this point every mutation follows the log-then-apply path. Attach
// happens before the engine is shared across goroutines (during Build
// or Open), so no lock is needed.
func (e *Engine) AttachWAL(logs []*wal.Log) error {
	if len(logs) != len(e.shards) {
		return fmt.Errorf("engine: %d WAL logs for %d shards", len(logs), len(e.shards))
	}
	for i, s := range e.shards {
		s.log = logs[i]
	}
	return nil
}

// Recover replays per-shard WAL tails against a freshly restored
// engine, bringing it to the last acknowledged pre-crash state. base
// holds each shard's snapshot epoch (the truncation point): records at
// or below it are already in the snapshot — left over from a crash
// between a snapshot rename and the log truncation — and are skipped.
//
// A multi-shard batch record is applied only when every shard in its
// declared target set logged it past its own truncation point; a batch
// missing anywhere was never acknowledged (acknowledgement follows the
// last target's append), so dropping it everywhere preserves the
// engine's atomic-batch guarantee. Shards replay their surviving
// records independently and in parallel — the same no-shared-state
// property the live write path has.
//
// Recover returns the number of records applied. Call before the
// engine is shared, and checkpoint afterwards so batch ids restarting
// from zero cannot collide with ids still in a log.
func (e *Engine) Recover(tails [][]wal.Record, base []uint64) (int, error) {
	if len(tails) != len(e.shards) {
		return 0, fmt.Errorf("engine: %d WAL tails for %d shards", len(tails), len(e.shards))
	}
	if len(base) != len(e.shards) {
		return 0, fmt.Errorf("engine: %d snapshot epochs for %d shards", len(base), len(e.shards))
	}

	// Pass 1: drop records the snapshot already covers, then work out
	// which multi-shard batches reached every declared target.
	fresh := make([][]wal.Record, len(tails))
	logged := map[uint64]map[int]bool{} // batch id → shards that logged it
	targets := map[uint64][]int{}       // batch id → declared target set
	for i, tail := range tails {
		for _, rec := range tail {
			if rec.Epoch <= base[i] {
				continue
			}
			fresh[i] = append(fresh[i], rec)
			if rec.BatchID != 0 {
				if logged[rec.BatchID] == nil {
					logged[rec.BatchID] = map[int]bool{}
				}
				logged[rec.BatchID][i] = true
				targets[rec.BatchID] = rec.Targets
			}
		}
	}
	complete := map[uint64]bool{}
	for id, want := range targets {
		ok := len(want) > 0
		for _, t := range want {
			if t < 0 || t >= len(e.shards) || !logged[id][t] {
				ok = false
				break
			}
		}
		complete[id] = ok
	}

	// Pass 2: replay each shard's surviving records in log order, all
	// shards in parallel. Inserts restore the exact placement the log
	// recorded; the shared assignment index is the only cross-shard
	// state and is updated under its own lock.
	applied := make([]int, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.shards[i]
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, rec := range fresh[i] {
				if rec.BatchID != 0 && !complete[rec.BatchID] {
					continue
				}
				if !e.applyRecordLocked(i, rec) {
					continue // replayed no-op: no epoch move
				}
				applied[i]++
				// The record's epoch is the shard epoch after the
				// original apply; adopting it replays the epoch
				// trajectory along with the data.
				if rec.Epoch > s.epoch.Load() {
					s.epoch.Store(rec.Epoch)
				}
			}
		}(i)
	}
	wg.Wait()

	total := 0
	for _, n := range applied {
		total += n
	}
	return total, nil
}

// Checkpoint snapshots the engine and retires the WAL segments the
// snapshot covers, holding the all-shard lock only for the cheap part.
// The protocol is crash-safe at every point and keeps writers off the
// critical path of the expensive snapshot encode:
//
//  1. Under every shard's read lock (taken in the engine's ascending
//     total order, the same order Save and multi-shard batches use):
//     capture the snapshot — a memory copy of each shard's units plus
//     its epoch — and rotate each shard's WAL to a fresh segment. The
//     rotation boundary and the captured epoch align exactly: every
//     record at or below the boundary has an epoch the snapshot covers.
//  2. Release the locks, then hand the capture to write — which must
//     make it durable before returning. Mutations proceed concurrently,
//     logging into the fresh segments; the capture is a private copy,
//     so the encode races nothing.
//  3. Only after write returns does each shard delete its sealed
//     segments at or below the boundary (deferred truncation).
//
// A crash before the snapshot lands recovers from the previous snapshot
// plus all live segments; a crash after it lands but before (or during)
// the deferred deletion recovers from the new snapshot, with the
// leftover sealed records recognized by their epochs as already applied
// and skipped. ckptMu serializes concurrent checkpoints so their
// rotation boundaries and deletions cannot interleave.
func (e *Engine) Checkpoint(write func(*snapshot.Snapshot) error) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	lockStart := time.Now()
	for _, s := range e.shards {
		s.mu.RLock()
	}
	snap := e.snapshotLocked()
	boundaries := make([]uint64, len(e.shards))
	var rotErr error
	for i, s := range e.shards {
		if s.log == nil {
			continue
		}
		if boundaries[i], rotErr = s.log.Rotate(); rotErr != nil {
			rotErr = fmt.Errorf("engine: shard %d: %w", s.id, rotErr)
			break
		}
	}
	for _, s := range e.shards {
		s.mu.RUnlock()
	}
	e.observeCkptPhase(func(o *Obs) *obs.Histogram { return o.CkptLockNs }, time.Since(lockStart))
	if rotErr != nil {
		// Shards rotated before the failure keep their sealed segments;
		// recovery replays them and the next checkpoint retires them.
		return rotErr
	}

	persistStart := time.Now()
	if err := write(snap); err != nil {
		return err
	}
	e.observeCkptPhase(func(o *Obs) *obs.Histogram { return o.CkptPersistNs }, time.Since(persistStart))
	// The snapshot is durable: its epochs become the replication base —
	// a follower whose watermark predates them must re-bootstrap from
	// this (or a later) snapshot, because the covering segments are
	// about to be retired.
	e.setReplBase(snap.ShardEpochs())

	retireStart := time.Now()
	defer func() {
		e.observeCkptPhase(func(o *Obs) *obs.Histogram { return o.CkptRetireNs }, time.Since(retireStart))
	}()
	for i, s := range e.shards {
		if s.log == nil {
			continue
		}
		if err := s.log.DropSealed(boundaries[i]); err != nil {
			// Leftover sealed segments are correctness-neutral (epoch
			// truncation skips them on recovery) but waste disk; surface
			// the error so the operator sees it and the next checkpoint
			// retries.
			return fmt.Errorf("engine: shard %d: %w", s.id, err)
		}
	}
	return nil
}
