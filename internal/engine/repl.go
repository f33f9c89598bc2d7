package engine

import (
	"fmt"

	"repro/internal/metadata"
	"repro/internal/wal"
)

// Replication support: a follower engine applies records shipped from
// a leader's WAL through the same switch recovery uses, so follower
// state after applying a shipped prefix is identical to leader state
// after logging it. The shipped records keep the leader's epoch stamps
// — the follower's shard epochs replay the leader's trajectory rather
// than advancing on their own — which is what makes the epoch a
// resume watermark shared by both sides.

// applyRecordLocked applies one WAL record to shard i, reporting
// whether it was effectual (a no-op delete/modify of an absent id is
// not). The caller must hold the shard's write lock; epoch adoption is
// the caller's job because recovery and replication share this switch
// but differ in when they adopt.
func (e *Engine) applyRecordLocked(i int, rec wal.Record) bool {
	s := e.shards[i]
	switch rec.Op {
	case wal.OpInsert:
		files := make([]*metadata.File, len(rec.Files))
		for j := range rec.Files {
			files[j] = &rec.Files[j]
		}
		s.insertFilesLocked(files)
		e.assignMu.Lock()
		for _, f := range files {
			e.assign[f.ID] = i
			if f.ID > e.maxID {
				e.maxID = f.ID
			}
		}
		e.assignMu.Unlock()
	case wal.OpDelete:
		if _, found := s.cluster.DeleteFile(rec.ID); !found {
			return false
		}
		e.assignMu.Lock()
		delete(e.assign, rec.ID)
		if rec.ID == e.maxID {
			e.recomputeMaxLocked()
		}
		e.assignMu.Unlock()
	case wal.OpModify:
		if _, found := s.cluster.ModifyFile(&rec.Files[0]); !found {
			return false
		}
	case wal.OpFlush:
		// A legacy replica propagation from an older log: every
		// mutation is already visible, so there is nothing to apply,
		// but the record counts as effectual so its epoch stamp is
		// adopted and the shard replays the logged epoch trajectory.
	}
	return true
}

// ApplyReplicated applies shipped leader records to one shard, in log
// order, logging each to the follower's own WAL (log-then-apply, the
// same ordering the live write path uses) before applying it. Records
// at or below the shard's current epoch are skipped — the pull
// protocol can legitimately re-ship a prefix after a follower restart
// — so the call is idempotent. It returns the number of records
// applied.
//
// The caller (internal/repl) is responsible for batch atomicity:
// multi-shard batch records must be withheld until every declared
// target's fragment has arrived. ApplyReplicated itself applies
// whatever it is given.
func (e *Engine) ApplyReplicated(shard int, recs []wal.Record) (int, error) {
	if shard < 0 || shard >= len(e.shards) {
		return 0, fmt.Errorf("engine: replicated records for shard %d of %d", shard, len(e.shards))
	}
	s := e.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	applied := 0
	for _, rec := range recs {
		if rec.Epoch <= s.epoch.Load() {
			continue
		}
		if s.log != nil {
			// Synchronous append preserving the leader's epoch stamp:
			// a follower crash mid-batch recovers through the ordinary
			// Recover path, whose batch-completeness check drops any
			// fragment the crash stranded (the leader re-ships it).
			if err := s.log.Append(&rec); err != nil {
				return applied, fmt.Errorf("engine: replicate shard %d: %w", shard, err)
			}
		}
		if e.applyRecordLocked(shard, rec) {
			if rec.Epoch > s.epoch.Load() {
				s.epoch.Store(rec.Epoch)
			}
		}
		applied++
	}
	return applied, nil
}

// setReplBase publishes the per-shard replication base — called with
// the epochs of a snapshot that just became durable.
func (e *Engine) setReplBase(epochs []uint64) {
	base := make([]uint64, len(epochs))
	copy(base, epochs)
	e.replBase.Store(&base)
}

// ReplBase returns each shard's replication base: the epoch of the
// latest durable snapshot, zero before any snapshot exists. A tail
// request whose watermark is below the base cannot be served from the
// log and must re-bootstrap from a snapshot.
func (e *Engine) ReplBase() []uint64 {
	if p := e.replBase.Load(); p != nil {
		out := make([]uint64, len(*p))
		copy(out, *p)
		return out
	}
	return make([]uint64, len(e.shards))
}
