// Package wal is the per-shard write-ahead log that gives the sharded
// engine crash durability between snapshots. Each engine shard owns its
// own log — shards never contend on a shared log — and appends one
// record per mutation (insert batch, delete, modify) *before* applying
// it, so every acknowledged mutation since the last snapshot survives a
// crash and replays on the next Open.
//
// A shard's log is a directory of fixed-capacity segment files with a
// monotonic sequence number (see segment.go for the byte layout and
// DESIGN.md §7 for the protocol). Appends land in the newest — active —
// segment and rotate to a fresh one at capacity; older segments are
// sealed: immutable, and fsynced before anything newer exists (under
// the syncing policies), so a crash can tear only the newest tail.
// Segmentation is what makes checkpoints lock-light: the engine rotates
// every shard to a fresh segment under the shard locks (a cheap
// create), releases them, writes and fsyncs the snapshot outside the
// lock hold, and only then deletes the sealed segments the snapshot
// covers (DropSealed) — writers keep committing into the new segments
// for the whole snapshot encode.
//
// Open scans every live segment in sequence order, validates headers
// and CRCs, returns the concatenated records, and truncates a torn
// final tail — a record cut mid-append is discarded cleanly, never
// mistaken for data. Records carry the shard's mutation epoch after
// applying, which is the snapshot truncation point: recovery replays
// only records beyond the snapshot's epoch, so sealed segments left
// behind by a crash between a snapshot rename and the deferred deletion
// cannot double-apply. Multi-shard insert batches carry a shared batch
// id plus the full target-shard set; recovery drops batches that did
// not reach every target's log (they were never acknowledged),
// preserving the engine's atomic-batch guarantee across a crash.
//
// Three sync policies trade durability for throughput: SyncAlways
// acknowledges an append only after an fsync covers it — batched by a
// per-shard group committer, so N concurrent appenders share one fsync
// instead of paying N (commit.go) — and survives power loss.
// SyncInterval leaves fsync to a periodic caller (bounded loss on power
// failure). SyncNever never fsyncs (the OS page cache still preserves
// every acknowledged write across a process crash — SIGKILL loses
// nothing under any policy).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs (group-committed) every append before it is
	// acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncInterval defers fsync to periodic Sync calls by the owner.
	SyncInterval
	// SyncNever never fsyncs; the OS flushes at its leisure.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy resolves a policy's flag spelling ("always",
// "interval", "never") — the inverse of String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// Options tunes a log beyond its sync policy. The zero value selects
// defaults.
type Options struct {
	// SegmentBytes is the rotation capacity: an append that would grow
	// the active segment past it seals the segment and starts a fresh
	// one. 0 selects DefaultSegmentBytes. A single record larger than
	// the capacity still lands (in a segment of its own) — capacity
	// bounds rotation, not record size.
	SegmentBytes int64
}

// Log is one shard's append-only write-ahead log over a segment
// directory. All methods are safe for concurrent use; the engine
// additionally serializes appends under the shard's write lock, so
// records land in mutation order.
type Log struct {
	dir    string
	shard  int
	policy SyncPolicy
	segCap int64

	// mu guards the segment state (active, sealed, sizes) and the sticky
	// error. fsyncs happen outside it wherever possible: the group
	// committer syncs after releasing it, so appenders on other offsets
	// keep writing while a batch commits.
	mu     sync.Mutex
	active *segment
	sealed []sealedSegment
	// sealedBytes caches the sealed segments' total valid length;
	// liveBytes mirrors sealedBytes + active.size after every size
	// change, so Size is a lock-free read — cheap enough for a
	// per-mutation checkpoint-trigger probe across many shards.
	sealedBytes int64
	liveBytes   atomic.Int64
	closed      bool
	// err is sticky: once the on-disk state is unknowable (a failed
	// fsync, a failed rollback) the log refuses further writes rather
	// than risk replaying an unacknowledged record.
	err error

	// appenders tracks in-flight Append calls so Close stops the
	// committer only after the queue can no longer grow.
	appenders sync.WaitGroup

	// Group-commit plumbing (SyncAlways only).
	commitCh      chan commitReq
	stopCh        chan struct{}
	committerDone chan struct{}
	// commitSyncHook, when non-nil, runs before each group fsync —
	// test-only, to make batch formation observable on fast storage.
	commitSyncHook func()

	// Operational counters, exposed through Stats.
	groupCommits   atomic.Uint64
	groupedRecords atomic.Uint64
	rotations      atomic.Uint64

	// obsv is the optional metrics sink (observe.go), attached after
	// Open by the store facade. Atomic so attachment never races an
	// in-flight append.
	obsv atomic.Pointer[Observer]
}

// Stats is a point-in-time operational summary of one shard's log —
// or, summed by the store that owns the logs, of all of them: the
// struct is the "wal" section of /v1/stats (DESIGN.md §5), so the
// facade's and the server's names are aliases of it.
type Stats struct {
	// Segments counts live segment files (sealed + active); Bytes is
	// their total valid length.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// DurableBytes is the durable watermark: sealed bytes plus the
	// fsync-covered prefix of the active segment. Everything below it
	// survives power loss and is what TailSince ships under SyncAlways
	// — the follower lag observable is Bytes - DurableBytes.
	DurableBytes int64 `json:"durable_bytes"`
	// GroupCommits counts fsync batches the group committer issued;
	// GroupedRecords counts the appends those batches acknowledged.
	// GroupedRecords / GroupCommits is the achieved batching factor.
	GroupCommits   uint64 `json:"group_commits"`
	GroupedRecords uint64 `json:"grouped_records"`
	// Rotations counts segment rotations (capacity- and
	// checkpoint-triggered).
	Rotations uint64 `json:"rotations"`
	// AutoCheckpoints counts the checkpoints the store's
	// CheckpointBytes threshold triggered and AutoCheckpointFailures
	// the triggered checkpoints that failed (the WAL keeps everything
	// and the next mutation retries, but a climbing failure count with
	// a growing WAL is the disk-pressure alarm). Checkpointing is the
	// store's decision, so a Log's own Stats leaves both zero.
	AutoCheckpoints        uint64 `json:"auto_checkpoints"`
	AutoCheckpointFailures uint64 `json:"auto_checkpoint_failures"`
}

// Open opens (creating if absent) the shard's segmented log in the
// directory at path, scans every live segment in sequence order, and
// returns the concatenated intact records. A torn tail — the crash hit
// mid-append or mid-rotation — is truncated so the log ends on a frame
// boundary ready for appends. The pre-segmented single-file layout is
// refused with a distinct error rather than misread.
func Open(path string, shard int, policy SyncPolicy, opts Options) (*Log, []Record, error) {
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		return nil, nil, fmt.Errorf("wal: %s is a file, not a segment directory (a pre-segmented v1 log cannot be opened by this version)", path)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segCap := opts.SegmentBytes
	if segCap <= 0 {
		segCap = DefaultSegmentBytes
	}
	l := &Log{
		dir:    path,
		shard:  shard,
		policy: policy,
		segCap: segCap,
	}
	recs, err := l.load()
	if err != nil {
		return nil, nil, err
	}
	if l.policy == SyncAlways {
		l.startCommitter()
	}
	return l, recs, nil
}

// load scans the directory's segments in sequence order, accumulating
// records until the end or the first damage. Damage in the newest
// segment is the ordinary torn tail (truncate it); damage in an older
// one means every later segment postdates an unsynced tail — nothing in
// them was ever acknowledged (sealing fsyncs before creating a
// successor under the syncing policies) — so they are deleted and the
// damaged segment becomes the truncated active one.
func (l *Log) load() ([]Record, error) {
	segs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		seg, err := createSegment(l.dir, l.shard, 1)
		if err != nil {
			return nil, err
		}
		l.active = seg
		l.updateLiveLocked()
		return nil, nil
	}

	var all []Record
	for i, meta := range segs {
		f, recs, valid, torn, err := openSegment(meta.path, l.shard, meta.seq)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
		if !torn {
			if i == len(segs)-1 {
				l.active = &segment{f: f, path: meta.path, seq: meta.seq, size: valid, acked: valid}
				l.updateLiveLocked()
				return all, nil
			}
			l.sealed = append(l.sealed, sealedSegment{path: meta.path, seq: meta.seq, size: valid})
			l.sealedBytes += valid
			f.Close()
			continue
		}

		// Torn segment: truncate the tear (or reinitialize a torn
		// header) and make it the active segment; later segments hold
		// only unacknowledged bytes — remove them.
		if valid < int64(segHeaderSize) {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: reset torn header %s: %w", meta.path, err)
			}
			if _, err := f.WriteAt(encodeSegmentHeader(l.shard, meta.seq), 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: rewrite header %s: %w", meta.path, err)
			}
			valid = int64(segHeaderSize)
		} else if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", meta.path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync %s: %w", meta.path, err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later.path); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: remove unacknowledged segment %s: %w", later.path, err)
			}
		}
		l.active = &segment{f: f, path: meta.path, seq: meta.seq, size: valid, acked: valid}
		l.updateLiveLocked()
		return all, nil
	}
	return all, nil
}

// Append frames and writes one record at the end of the active segment,
// rotating first when the segment is at capacity. Under SyncAlways the
// call returns only after an fsync covers the record — one fsync per
// concurrent batch via the group committer. A failed write rolls the
// segment back to the previous frame boundary; if the rollback (or a
// group fsync) cannot leave the on-disk state knowable, the log goes
// sticky-broken and refuses further appends — a silently replayable
// unacknowledged record would be the dishonest alternative.
func (l *Log) Append(rec *Record) error {
	if o := l.obsv.Load(); o != nil && o.AppendNs != nil {
		start := time.Now()
		err := l.append(rec)
		o.AppendNs.Observe(uint64(time.Since(start)))
		return err
	}
	return l.append(rec)
}

func (l *Log) append(rec *Record) error {
	wait, err := l.appendAsync(rec)
	if err != nil {
		return err
	}
	return wait()
}

// AppendAsync splits Append into its two halves: staging — frame,
// write at the staged offset, everything that must happen in mutation
// order — runs before AppendAsync returns, and the durability
// acknowledgement moves into the returned wait function. A staging
// failure (encode, rotation, write, sticky-broken, closed) is
// returned immediately with a nil wait, exactly as Append would have
// rejected it. The engine stages under the shard write lock and waits
// after releasing it, so same-shard writers overlap their fsyncs
// instead of serializing them through the lock hold.
//
// A non-nil wait MUST be called on every path — including caller-side
// error paths — because under group commit it holds the appender
// registration Close drains before stopping the committer; leaking it
// hangs Close. Calling it again is harmless (the first verdict is
// replayed). Under SyncInterval/SyncNever the verdict is already
// settled and wait returns it immediately.
func (l *Log) AppendAsync(rec *Record) (wait func() error, err error) {
	if o := l.obsv.Load(); o != nil && o.AppendNs != nil {
		start := time.Now()
		wait, err := l.appendAsync(rec)
		if err != nil {
			o.AppendNs.Observe(uint64(time.Since(start)))
			return nil, err
		}
		return func() error {
			err := wait()
			o.AppendNs.Observe(uint64(time.Since(start)))
			return err
		}, nil
	}
	return l.appendAsync(rec)
}

// settledWait is the wait of an append whose verdict needs no
// out-of-lock half.
func settledWait(err error) func() error {
	return func() error { return err }
}

func (l *Log) appendAsync(rec *Record) (func() error, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordSize {
		// scanFrames treats an over-limit length prefix as a torn tail,
		// so an oversized frame — and everything after it — would
		// silently vanish on the next Open. Refuse it before it is
		// acknowledged.
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds the %d limit (split the batch)",
			len(payload), maxRecordSize)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	if l.closed {
		l.mu.Unlock()
		return nil, errClosed
	}
	if l.active.size > int64(segHeaderSize) && l.active.size+int64(len(frame)) > l.segCap {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	seg := l.active
	if _, err := seg.f.WriteAt(frame, seg.size); err != nil {
		err = l.rollbackLocked(seg, err)
		l.mu.Unlock()
		return nil, err
	}
	seg.size += int64(len(frame))
	l.updateLiveLocked()
	if l.policy == SyncAlways {
		// Registered before releasing mu, so Close (which marks closed
		// under mu first) cannot stop the committer while this appender
		// is between the write and the enqueue. The registration is
		// released by the wait — which is why wait must always run.
		l.appenders.Add(1)
		l.mu.Unlock()
		var once sync.Once
		var verdict error
		return func() error {
			once.Do(func() {
				defer l.appenders.Done()
				verdict = l.awaitCommit()
			})
			return verdict
		}, nil
	}
	l.mu.Unlock()
	return settledWait(nil), nil
}

// rollbackLocked truncates the segment back to its recorded valid size
// after a failed write, persisting the truncation. If the rollback
// itself cannot be made durable the log goes sticky-broken — with the
// on-disk state unknowable, refusing further appends is the honest
// failure. The caller must hold mu.
func (l *Log) rollbackLocked(seg *segment, cause error) error {
	if terr := seg.f.Truncate(seg.size); terr != nil {
		l.err = fmt.Errorf("wal: %s broken: append failed (%v) and rollback failed (%v)", seg.path, cause, terr)
		return l.err
	}
	if serr := seg.f.Sync(); serr != nil {
		l.err = fmt.Errorf("wal: %s broken: append failed (%v) and rollback sync failed (%v)", seg.path, cause, serr)
		return l.err
	}
	return fmt.Errorf("wal: append %s: %w", seg.path, cause)
}

// rotateLocked seals the active segment and opens its successor. Under
// the syncing policies the seal fsyncs the outgoing segment first —
// the invariant that lets recovery treat damage in a non-final segment
// as proof that later segments hold nothing acknowledged. The caller
// must hold mu.
func (l *Log) rotateLocked() error {
	seg := l.active
	if l.policy != SyncNever {
		if err := l.syncFile(seg.f); err != nil {
			// Refuse to create a successor over an unsynced tail; the
			// failed fsync leaves the page-cache state unknowable. Under
			// group commit, frames beyond the durable watermark belong
			// to appenders still awaiting their fsync — they were never
			// acknowledged and must not replay, so roll them back
			// exactly like a failed group commit would (under the other
			// policies every appended frame is already acknowledged, and
			// discarding any of them would be the real corruption).
			if l.policy == SyncAlways {
				if terr := seg.f.Truncate(seg.acked); terr != nil {
					l.err = fmt.Errorf("wal: %s broken: seal fsync failed (%v) and rollback failed (%v)",
						seg.path, err, terr)
					return l.err
				}
				seg.size = seg.acked
				l.updateLiveLocked()
			}
			l.err = fmt.Errorf("wal: %s broken: seal fsync failed: %v", seg.path, err)
			return l.err
		}
		seg.acked = seg.size
	}
	next, err := createSegment(l.dir, l.shard, seg.seq+1)
	if err != nil {
		return err
	}
	seg.f.Close()
	l.sealed = append(l.sealed, sealedSegment{path: seg.path, seq: seg.seq, size: seg.size})
	l.sealedBytes += seg.size
	l.active = next
	l.updateLiveLocked()
	l.rotations.Add(1)
	return nil
}

// Rotate seals the active segment and starts a fresh one, returning the
// highest sealed sequence — the boundary a checkpoint passes to
// DropSealed once its snapshot is durable. Every record appended before
// Rotate is in a sealed segment at or below the boundary; every record
// appended after lands beyond it. An empty active segment with nothing
// sealed is left alone (boundary 0): rotating it would only churn
// files.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, errClosed
	}
	if l.active.size == int64(segHeaderSize) {
		if len(l.sealed) == 0 {
			return 0, nil
		}
		return l.sealed[len(l.sealed)-1].seq, nil
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.sealed[len(l.sealed)-1].seq, nil
}

// DropSealed deletes sealed segments with sequence at or below
// through — the deferred truncation a checkpoint performs after its
// snapshot is durable. Segments a failed deletion leaves behind are
// harmless (their records sit at or below the snapshot's epoch
// truncation points and are skipped on recovery); the error is reported
// for the operator and the next checkpoint retries.
func (l *Log) DropSealed(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.seq > through {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(s.path); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: drop sealed segment %s: %w", s.path, err)
			}
			kept = append(kept, s)
			continue
		}
		l.sealedBytes -= s.size
	}
	l.sealed = kept
	l.updateLiveLocked()
	return firstErr
}

// Sync forces the active segment to stable storage — the periodic half
// of SyncInterval. Sealed segments were fsynced when sealed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errClosed
	}
	if err := l.syncFile(l.active.f); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.active.path, err)
	}
	l.active.acked = l.active.size
	return nil
}

// updateLiveLocked refreshes the lock-free size mirror after a change
// to the active segment's size or the sealed inventory. The caller
// must hold mu.
func (l *Log) updateLiveLocked() {
	l.liveBytes.Store(l.sealedBytes + l.active.size)
}

// Size returns the total valid length of the log in bytes across every
// live segment (headers included) — the signal WAL-size-triggered
// checkpoints key on. Lock-free: callers may probe it on every
// mutation without touching the appenders' mutex.
func (l *Log) Size() int64 {
	return l.liveBytes.Load()
}

// Stats snapshots the log's operational counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segments := len(l.sealed) + 1
	bytes := l.sealedBytes + l.active.size
	durable := l.sealedBytes + l.active.acked
	l.mu.Unlock()
	return Stats{
		Segments:       segments,
		Bytes:          bytes,
		DurableBytes:   durable,
		GroupCommits:   l.groupCommits.Load(),
		GroupedRecords: l.groupedRecords.Load(),
		Rotations:      l.rotations.Load(),
	}
}

// Close stops the group committer after in-flight appends drain, syncs
// the active segment, and closes it. Appends racing Close are either
// fully acknowledged or rejected with a closed-log error — never left
// half-committed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	// New appends are now rejected; wait out the ones already past the
	// closed check, then stop the committer.
	l.appenders.Wait()
	if l.policy == SyncAlways {
		close(l.stopCh)
		<-l.committerDone
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.active.f.Sync(); err != nil {
		l.active.f.Close()
		return fmt.Errorf("wal: sync %s: %w", l.active.path, err)
	}
	return l.active.f.Close()
}
