package engine

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// attachTestWAL wires a fresh segmented WAL per shard into the engine.
func attachTestWAL(t testing.TB, e *Engine, dir string) []*wal.Log {
	t.Helper()
	logs := make([]*wal.Log, e.Shards())
	for i := range logs {
		l, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i)), i,
			wal.SyncNever, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	if err := e.AttachWAL(logs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, l := range logs {
			l.Close()
		}
	})
	return logs
}

// TestCheckpointEncodeDoesNotHoldShardLocks is the lock-light
// checkpoint contract, run under -race in CI: while the snapshot
// write (the stand-in for the expensive gob encode + fsync) is in
// flight, a write to a shard must commit — no all-shard lock is held
// during the encode. Under the pre-segmentation protocol, which held
// every shard's read lock across the write callback, the insert below
// would deadlock against the blocked callback and the test would time
// out.
func TestCheckpointEncodeDoesNotHoldShardLocks(t *testing.T) {
	e, set := buildEngine(t, 300, 8, 4)
	logs := attachTestWAL(t, e, t.TempDir())

	entered := make(chan struct{})
	release := make(chan struct{})
	ckptErr := make(chan error, 1)
	go func() {
		ckptErr <- e.Checkpoint(func(snap *snapshot.Snapshot) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		f := *set.Files[0]
		f.ID = 1 << 40
		f.Path = "/ckpt/mid-encode.dat"
		_, err := e.InsertBatch([]*metadata.File{&f})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("insert during checkpoint encode: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("write blocked while the checkpoint's snapshot encode was in flight")
	}
	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// The mid-encode insert postdates the rotation boundary, so its
	// record must survive the checkpoint's deferred truncation.
	var live, headerOnly int64
	for _, l := range logs {
		live += l.Size()
		headerOnly += int64(wal.SegmentHeaderSize)
	}
	if live <= headerOnly {
		t.Fatalf("mid-encode insert's WAL record was truncated away: %d live bytes", live)
	}
	if _, ok := e.FileByID(1 << 40); !ok {
		t.Fatal("mid-encode insert not visible after checkpoint")
	}
}

// TestCheckpointRetiresCoveredSegments: records captured by the
// snapshot are deleted by the deferred truncation, records appended
// after the capture are kept — the boundary and the snapshot epochs
// agree exactly.
func TestCheckpointRetiresCoveredSegments(t *testing.T) {
	e, set := buildEngine(t, 200, 6, 2)
	logs := attachTestWAL(t, e, t.TempDir())

	for j := 0; j < 6; j++ {
		f := *set.Files[j]
		f.ID = uint64(1<<40 + j)
		f.Path = fmt.Sprintf("/pre/%d.dat", j)
		if _, err := e.InsertBatch([]*metadata.File{&f}); err != nil {
			t.Fatal(err)
		}
	}
	var preBytes int64
	for _, l := range logs {
		preBytes += l.Size()
	}

	var snap *snapshot.Snapshot
	if err := e.Checkpoint(func(s *snapshot.Snapshot) error { snap = s; return nil }); err != nil {
		t.Fatal(err)
	}
	var postBytes int64
	for _, l := range logs {
		postBytes += l.Size()
	}
	if postBytes >= preBytes {
		t.Fatalf("deferred truncation retired nothing: %d → %d bytes", preBytes, postBytes)
	}
	captured := 0
	for _, sh := range snap.Shards {
		for _, u := range sh.Units {
			captured += len(u.Files)
		}
	}
	if captured != 206 {
		t.Fatalf("snapshot captured %d files, want 206", captured)
	}
	// A second, mutation-free checkpoint must not churn segments.
	st0 := logs[0].Stats()
	if err := e.Checkpoint(func(*snapshot.Snapshot) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := logs[0].Stats(); got.Rotations != st0.Rotations {
		t.Fatalf("idle checkpoint rotated segments: %d → %d", st0.Rotations, got.Rotations)
	}
}
