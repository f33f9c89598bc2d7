package wal

import (
	"errors"
	"fmt"
	"runtime"
)

// Group commit for the SyncAlways policy: instead of every appender
// paying its own fsync, appenders write their frame under the log
// mutex, enqueue onto the commit channel, and block until the committer
// goroutine's next fsync covers their record. The committer drains the
// queue into a batch and issues ONE fsync for all of it — every batched
// frame was written before its writer enqueued, so a single sync of the
// active segment (sealed predecessors were fsynced when sealed) covers
// the whole batch. A lone appender still gets one-fsync-per-op latency:
// its enqueue wakes the committer immediately and the batch is just it.
//
// Ordering guarantee: Append returns nil only after an fsync that
// covers the record — the same acknowledgement contract as one fsync
// per append. A failed group fsync fails every
// waiter in the batch, rolls the active segment back to the durable
// watermark (those frames were never acknowledged and must not replay),
// and marks the log sticky-broken: after a failed fsync the kernel may
// have dropped the dirty pages, so the on-disk state is unknowable and
// refusing further appends is the honest failure.

// errClosed rejects appends racing Close.
var errClosed = errors.New("wal: log closed")

// commitReq is one appender waiting for the fsync that covers its
// record.
type commitReq struct {
	done chan error
}

// startCommitter launches the group-commit goroutine. Called once from
// Open when the policy is SyncAlways (and grouping is not disabled).
func (l *Log) startCommitter() {
	l.commitCh = make(chan commitReq, 128)
	l.stopCh = make(chan struct{})
	l.committerDone = make(chan struct{})
	go l.committer()
}

// committer is the per-shard commit loop: wait for one request, drain
// whatever else queued meanwhile, fsync once, release the batch.
func (l *Log) committer() {
	defer close(l.committerDone)
	for {
		var first commitReq
		select {
		case first = <-l.commitCh:
		case <-l.stopCh:
			l.failPending()
			return
		}
		// Batch formation: yield once so appenders made runnable by the
		// previous batch's release get to write and enqueue before this
		// batch is sealed — without it, a committer on few cores laps
		// the writers and degenerates to one fsync per record. A lone
		// appender pays one scheduler yield, nanoseconds against the
		// fsync it is about to wait for.
		runtime.Gosched()
		batch := append(make([]commitReq, 0, 8), first)
	drain:
		for {
			select {
			case r := <-l.commitCh:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		err := l.commitBatch(len(batch))
		for _, r := range batch {
			r.done <- err
		}
	}
}

// commitBatch makes every frame written before the batch was collected
// durable with one fsync of the active segment. Frames in sealed
// segments are already durable (sealing fsyncs under SyncAlways), so
// syncing the newest segment suffices regardless of rotations that
// happened while the batch accumulated.
func (l *Log) commitBatch(n int) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	seg := l.active
	covered := seg.size
	l.mu.Unlock()

	if h := l.commitSyncHook; h != nil {
		// Test-only: widen the commit window so batching is observable
		// on storage where fsync outpaces the appenders.
		h()
	}
	if err := l.syncFile(seg.f); err != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.err != nil {
			return l.err
		}
		if seg != l.active {
			// The segment was sealed (and therefore successfully fsynced
			// and closed) between collecting the batch and syncing it —
			// the error is the closed handle, not a failed flush, and
			// every batched frame is already durable.
			l.groupCommits.Add(1)
			l.groupedRecords.Add(uint64(n))
			l.observeGroupCommit(n)
			return nil
		}
		// Genuine fsync failure: roll the segment back to the durable
		// watermark so the unacknowledged frames cannot replay, and go
		// sticky-broken — the page-cache state after a failed fsync is
		// unknowable.
		if terr := seg.f.Truncate(seg.acked); terr != nil {
			l.err = fmt.Errorf("wal: %s broken: group fsync failed (%v) and rollback failed (%v)",
				seg.path, err, terr)
		} else {
			seg.size = seg.acked
			l.updateLiveLocked()
			l.err = fmt.Errorf("wal: %s broken: group fsync failed: %v", seg.path, err)
		}
		return l.err
	}

	l.mu.Lock()
	if seg == l.active && covered > seg.acked {
		seg.acked = covered
	}
	l.mu.Unlock()
	l.groupCommits.Add(1)
	l.groupedRecords.Add(uint64(n))
	l.observeGroupCommit(n)
	return nil
}

// failPending rejects every request still queued when the committer
// stops; their frames are discarded with the close-time state.
func (l *Log) failPending() {
	for {
		select {
		case r := <-l.commitCh:
			r.done <- errClosed
		default:
			return
		}
	}
}

// awaitCommit enqueues the calling appender and blocks until the
// committer's covering fsync completes. The caller is registered in the
// appenders wait group (see Append), and Close stops the committer only
// after every registered appender has drained — so the send cannot race
// the shutdown and the reply channel is always served.
func (l *Log) awaitCommit() error {
	req := commitReq{done: make(chan error, 1)}
	l.commitCh <- req
	return <-req.done
}
