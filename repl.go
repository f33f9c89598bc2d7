package smartstore

import (
	"fmt"

	"repro/internal/wal"
)

// Replication facade: the leader-side read path (ReplTail — ship a
// shard's log past an epoch watermark) and the follower-side apply path
// (ApplyReplicated — fold shipped records in). A follower bootstraps with
// Load of a leader snapshot, which resumes the leader's epochs. The
// protocol and its invariants are documented in DESIGN.md §11; the wire
// framing lives in internal/wal (TailResponse and its codec).

// ReplTail serves one pull of shard's log for a follower: every record
// with epoch past after, up to roughly maxBytes encoded (0 selects the
// WAL's default ship budget). The response's Base is the shard's
// replication base — the epoch of the latest durable checkpoint — and
// when after predates it the response carries SnapshotRequired instead
// of records: a checkpoint has truncated the segments that covered the
// follower's watermark, so the follower must re-bootstrap from a fresh
// snapshot (Save + Load) and resume pulling from its epochs.
//
// The base is read *after* the log scan: a checkpoint landing between
// the two can only raise the base, so a stale-watermark pull racing a
// checkpoint reports SnapshotRequired rather than silently returning a
// gapped tail.
func (s *Store) ReplTail(shard int, after uint64, maxBytes int64) (*wal.TailResponse, error) {
	if s.logs == nil {
		return nil, fmt.Errorf("smartstore: replication needs a durable store (Config.DataDir)")
	}
	if shard < 0 || shard >= len(s.logs) {
		return nil, fmt.Errorf("smartstore: shard %d of %d", shard, len(s.logs))
	}
	resp := &wal.TailResponse{Shard: shard, After: after}
	recs, caughtUp, err := s.logs[shard].TailSince(after, maxBytes)
	if err != nil {
		return nil, err
	}
	resp.Base = s.eng.ReplBase()[shard]
	if after < resp.Base {
		resp.SnapshotRequired = true
		resp.Records = nil
		resp.CaughtUp = false
		return resp, nil
	}
	resp.Records = recs
	resp.CaughtUp = caughtUp
	return resp, nil
}

// ApplyReplicated folds shipped leader records into one shard, logging
// each to the follower's own WAL before applying (when the follower is
// durable) and adopting the leader's epoch stamps. Records at or below
// the shard's epoch are skipped, making re-shipped prefixes harmless.
// The caller is responsible for withholding multi-shard batch
// fragments until every target's fragment has arrived (internal/repl
// does); see engine.ApplyReplicated.
func (s *Store) ApplyReplicated(shard int, recs []wal.Record) (int, error) {
	n, err := s.eng.ApplyReplicated(shard, recs)
	if n > 0 {
		s.noteMutation()
	}
	return n, err
}
