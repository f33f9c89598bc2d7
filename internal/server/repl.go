package server

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/wal"
)

// Replication endpoints: the leader side serves snapshot bootstrap
// (GET /v1/repl/snapshot) and per-shard log tails (GET /v1/repl/wal);
// a follower serves replication status (GET /v1/repl/status) and
// promotion (POST /v1/repl/promote) while rejecting mutations with 503
// until promoted. Every endpoint is routed unconditionally — a leader
// simply has no ReplController, so status reports a non-following
// store and promote answers 409.

// ReplController is the follower-side hook the daemon wires in: the
// server consults it for status and delegates promotion to it. Nil on
// a store that is not following anyone.
type ReplController interface {
	// Status reports the follower's replication progress.
	Status() ReplStatusWire
	// Promote stops following and applies everything already fetched;
	// after it returns the store is writable. It must be idempotent.
	Promote() error
}

// ReplStatusWire answers GET /v1/repl/status.
type ReplStatusWire struct {
	// Following is the leader's base URL; empty when this store never
	// followed anyone.
	Following string `json:"following,omitempty"`
	// ReadOnly reports whether mutations are currently rejected.
	ReadOnly bool `json:"read_only"`
	// Promoted reports that a follower has been promoted to leader.
	Promoted bool `json:"promoted,omitempty"`
	// CaughtUp reports that every shard's last pull reached the durable
	// end of the leader's log with nothing left queued.
	CaughtUp bool `json:"caught_up"`
	// LeaderReachable reports whether the most recent pull round
	// succeeded.
	LeaderReachable bool `json:"leader_reachable,omitempty"`
	// RecordsApplied counts records folded into the store since the
	// process started following.
	RecordsApplied uint64 `json:"records_applied"`
	// ShardEpochs is the store's per-shard mutation epoch vector — on a
	// caught-up follower it matches the leader's.
	ShardEpochs []uint64 `json:"shard_epochs"`
}

// errReadOnly rejects mutations on a following store: 503, retryable
// against this address once it is promoted.
var errReadOnly = WithStatus(http.StatusServiceUnavailable,
	errors.New("store is read-only (following a leader; promote it first)"))

// writable screens a mutation handler on a read-only store.
func (s *Server) writable() error {
	if s.readOnly.Load() {
		return errReadOnly
	}
	return nil
}

// replMaxShipBytes bounds one tail response; a catching-up follower
// simply pulls again.
const replMaxShipBytes = 1 << 20

// handleReplSnapshot streams the store's current snapshot — the
// follower bootstrap base. The encoding is the exact Save format, and
// the capture takes the all-shard read locks, so the streamed snapshot
// is never torn mid-batch.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/octet-stream")
	// A mid-stream write error means the follower went away; the
	// stream is self-validating on the receiving side.
	_ = s.store.Save(w)
	return nil
}

// handleReplWAL serves one pull of a shard's log tail:
// GET /v1/repl/wal?shard=N&after=E, answered in the wal ship framing.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) error {
	if !s.store.Durable() {
		return BadRequest("replication needs a durable leader (-data-dir)")
	}
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		return BadRequest("repl/wal: bad shard: %v", err)
	}
	if shard < 0 || shard >= s.store.Shards() {
		return BadRequest("repl/wal: shard %d of %d", shard, s.store.Shards())
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		return BadRequest("repl/wal: bad after: %v", err)
	}
	resp, err := s.store.ReplTail(shard, after, replMaxShipBytes)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	return wal.EncodeTail(w, resp)
}

// handleReplStatus reports replication state. On a plain leader (no
// controller) it still answers — read_only false, no leader — so
// operators and the gateway can probe any member uniformly.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) error {
	var st ReplStatusWire
	if s.opts.Repl != nil {
		st = s.opts.Repl.Status()
	}
	st.ReadOnly = s.readOnly.Load()
	st.ShardEpochs = s.store.ShardEpochs()
	writeJSON(w, http.StatusOK, st)
	return nil
}

// handleReplPromote promotes a follower: the controller stops pulling
// and applies what it already fetched, then the server lifts the
// read-only guard. On a store that is not following, promotion is a
// 409 — there is nothing to promote.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) error {
	if s.opts.Repl == nil {
		return WithStatus(http.StatusConflict, errors.New("not a follower"))
	}
	if err := s.opts.Repl.Promote(); err != nil {
		return err
	}
	s.readOnly.Store(false)
	st := s.opts.Repl.Status()
	st.ReadOnly = false
	st.ShardEpochs = s.store.ShardEpochs()
	writeJSON(w, http.StatusOK, st)
	return nil
}
