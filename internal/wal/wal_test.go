package wal

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
)

func randFile(rng *rand.Rand) metadata.File {
	f := metadata.File{
		ID:       rng.Uint64(),
		Path:     string(make([]byte, rng.Intn(64))),
		SubTrace: rng.Intn(7) - 3,
	}
	b := []byte(f.Path)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	f.Path = string(b)
	for a := range f.Attrs {
		f.Attrs[a] = rng.NormFloat64() * 1e9
	}
	return f
}

func randRecord(rng *rand.Rand) Record {
	rec := Record{Epoch: rng.Uint64(), BatchID: rng.Uint64()}
	switch rng.Intn(4) {
	case 3:
		rec.Op = OpFlush
		rec.BatchID = 0
	case 0:
		rec.Op = OpInsert
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			rec.Files = append(rec.Files, randFile(rng))
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < 1+rng.Intn(4); i++ {
				rec.Targets = append(rec.Targets, rng.Intn(64))
			}
		}
	case 1:
		rec.Op = OpDelete
		rec.ID = rng.Uint64()
	default:
		rec.Op = OpModify
		rec.Files = []metadata.File{randFile(rng)}
	}
	return rec
}

// recordsEqual compares records treating nil and empty slices alike
// (the codec does not distinguish them).
func recordsEqual(a, b Record) bool {
	if a.Op != b.Op || a.Epoch != b.Epoch || a.BatchID != b.BatchID || a.ID != b.ID {
		return false
	}
	if len(a.Targets) != len(b.Targets) || len(a.Files) != len(b.Files) {
		return false
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return false
		}
	}
	for i := range a.Files {
		af, bf := a.Files[i], b.Files[i]
		if af.ID != bf.ID || af.Path != bf.Path || af.SubTrace != bf.SubTrace {
			return false
		}
		for j := range af.Attrs {
			// NaN-safe bit comparison: the codec round-trips IEEE bits.
			if math.Float64bits(af.Attrs[j]) != math.Float64bits(bf.Attrs[j]) {
				return false
			}
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		rec := randRecord(rng)
		buf, err := encodePayload(&rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		back, err := decodePayload(buf)
		if err != nil {
			t.Fatalf("decode of freshly encoded record: %v", err)
		}
		if !recordsEqual(rec, back) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", rec, back)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	rec := Record{Op: OpDelete, Epoch: 3, ID: 9}
	buf, err := encodePayload(&rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][]byte{
		nil,                                // empty
		buf[:len(buf)-1],                   // truncated
		append(buf[:len(buf):len(buf)], 0), // trailing byte
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown op
	} {
		if _, err := decodePayload(tc); err == nil {
			t.Fatalf("decode accepted malformed payload %v", tc)
		}
	}
	if _, err := encodePayload(&Record{Op: OpModify}); err == nil {
		t.Fatal("encode accepted modify without a file")
	}
	if _, err := encodePayload(&Record{Op: Op(77)}); err == nil {
		t.Fatal("encode accepted unknown op")
	}
}

// FuzzDecodePayload asserts the codec never panics on arbitrary bytes,
// and that anything it accepts re-encodes to the identical payload —
// the round-trip property that makes replay deterministic.
func FuzzDecodePayload(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		rec := randRecord(rng)
		buf, err := encodePayload(&rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePayload(data)
		if err != nil {
			return
		}
		re, err := encodePayload(&rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in %v\nout %v", data, re)
		}
	})
}

func openT(t testing.TB, dir string, shard int) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, shard, SyncNever, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs
}

// segPaths lists the directory's segment files in sequence order.
func segPaths(t testing.TB, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

// activePath returns the active segment's file path.
func activePath(l *Log) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active.path
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shard-0000.wal")
	l, recs := openT(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	rng := rand.New(rand.NewSource(3))
	var want []Record
	for i := 0; i < 100; i++ {
		rec := randRecord(rng)
		if err := l.Append(&rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openT(t, dir, 0)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("reopened log holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], got[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestCapacityRotationSpansSegments drives appends through a tiny
// segment capacity so the log rotates many times, then asserts the
// reopened log replays every record in order across the segment
// boundaries.
func TestCapacityRotationSpansSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncNever, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 200; i++ {
		rec := Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("256-byte capacity produced only %d segments", st.Segments)
	}
	if st.Rotations != uint64(st.Segments-1) {
		t.Fatalf("rotations %d for %d segments", st.Rotations, st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segPaths(t, dir); len(got) != st.Segments {
		t.Fatalf("%d segment files on disk, stats said %d", len(got), st.Segments)
	}
	l2, recs, err := Open(dir, 0, SyncNever, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], recs[i]) {
			t.Fatalf("record %d mismatch after multi-segment replay", i)
		}
	}
}

// TestRotateAndDropSealed is the checkpoint protocol at the WAL layer:
// Rotate returns a boundary covering everything appended so far,
// appends after it land beyond the boundary, and DropSealed(boundary)
// retires exactly the pre-rotation records.
func TestRotateAndDropSealed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _ := openT(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if boundary == 0 {
		t.Fatal("rotate of a non-empty log returned boundary 0")
	}
	for i := 5; i < 8; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash before DropSealed: everything must still replay.
	l2, recs := openT(t, dir, 0)
	if len(recs) != 8 {
		t.Fatalf("before deferred truncation: replayed %d records, want 8", len(recs))
	}
	l2.Close()

	l3, _ := openT(t, dir, 0)
	if err := l3.DropSealed(boundary); err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs = openT(t, dir, 0)
	if len(recs) != 3 || recs[0].ID != 5 {
		t.Fatalf("after DropSealed(%d): %d records, first %+v", boundary, len(recs), recs)
	}
}

// TestRotateEmptyLogIsNoop: rotating an empty active segment with
// nothing sealed creates no file churn and reports boundary 0.
func TestRotateEmptyLogIsNoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _ := openT(t, dir, 0)
	defer l.Close()
	for i := 0; i < 3; i++ {
		boundary, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if boundary != 0 {
			t.Fatalf("empty rotate %d returned boundary %d", i, boundary)
		}
	}
	if got := segPaths(t, l.dir); len(got) != 1 {
		t.Fatalf("empty rotations churned segments: %v", got)
	}
}

// TestTornTailTruncatedAtEveryOffset is the kill-mid-append simulation:
// an active segment whose final frame is cut at every possible byte
// offset must replay the preceding records cleanly, discard the torn
// tail, and accept appends afterwards.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	full := filepath.Join(base, "full")
	l, _ := openT(t, full, 0)
	rng := rand.New(rand.NewSource(4))
	var want []Record
	for i := 0; i < 3; i++ {
		rec := randRecord(rng)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	intactSize := l.Size()
	final := Record{Op: OpInsert, Epoch: 77, Files: []metadata.File{randFile(rng)}}
	if err := l.Append(&final); err != nil {
		t.Fatal(err)
	}
	fullSize := l.Size()
	segPath := activePath(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for off := intactSize; off < fullSize; off++ {
		torn := filepath.Join(base, fmt.Sprintf("torn-%d", off))
		if err := os.MkdirAll(torn, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(torn, filepath.Base(segPath)), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, recs, err := Open(torn, 0, SyncNever, Options{})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("offset %d: replayed %d records, want %d", off, len(recs), len(want))
		}
		if tl.Size() != intactSize {
			t.Fatalf("offset %d: torn tail not truncated: size %d, want %d", off, tl.Size(), intactSize)
		}
		// The log must keep working after discarding the tail.
		rec := Record{Op: OpDelete, Epoch: 99, ID: 1}
		if err := tl.Append(&rec); err != nil {
			t.Fatalf("offset %d: append after truncation: %v", off, err)
		}
		if err := tl.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := Open(torn, 0, SyncNever, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(want)+1 {
			t.Fatalf("offset %d: reopen after append: %d records, want %d", off, len(recs2), len(want)+1)
		}
	}
}

// TestTornMiddleSegmentDropsLaterSegments: damage in a sealed segment
// means the tail it cut — and every later segment, which postdates the
// unsynced bytes — was never acknowledged. The scan must stop at the
// tear, truncate it, and remove the later segments rather than replay
// around a hole.
func TestTornMiddleSegmentDropsLaterSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _ := openT(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs := segPaths(t, dir)
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments, got %v", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil { // tear the sealed segment's last frame
		t.Fatal(err)
	}
	_, recs := openT(t, dir, 0)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records past a mid-log tear, want 3", len(recs))
	}
	if got := segPaths(t, dir); len(got) != 1 {
		t.Fatalf("segments after the tear survived recovery: %v", got)
	}
}

func TestCorruptPayloadEndsScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	l, _ := openT(t, dir, 0)
	for i := 0; i < 3; i++ {
		rec := Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	sz := l.Size()
	segPath := activePath(l)
	l.Close()
	data, _ := os.ReadFile(segPath)
	data[sz-1] ^= 0xFF // flip a payload byte of the final record
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, 0)
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("scan past a corrupt CRC: got %d records, want 2", len(recs))
	}
}

// A segment shorter than its header (crash during the segment's very
// first write) provably holds no record — Open must reinitialize it,
// not refuse the boot forever.
func TestOpenReinitializesTornHeader(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), []byte("SSWAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openT(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("torn header yielded %d records", len(recs))
	}
	if err := l.Append(&Record{Op: OpDelete, Epoch: 1, ID: 7}); err != nil {
		t.Fatalf("append after reinit: %v", err)
	}
	l.Close()
	_, recs = openT(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("reinitialized log replayed %d records, want 1", len(recs))
	}
}

func TestOpenValidatesHeader(t *testing.T) {
	base := t.TempDir()
	d1 := filepath.Join(base, "a")
	l, _ := openT(t, d1, 1)
	if err := l.Append(&Record{Op: OpDelete, Epoch: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := Open(d1, 2, SyncNever, Options{}); err == nil {
		t.Fatal("Open accepted a log owned by another shard")
	}
	d2 := filepath.Join(base, "b")
	if err := os.MkdirAll(d2, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d2, segmentFileName(1)),
		[]byte("definitely not a WAL segment header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(d2, 0, SyncNever, Options{}); err == nil {
		t.Fatal("Open accepted garbage magic")
	}
	d3 := filepath.Join(base, "c")
	if err := os.MkdirAll(d3, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d3, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(d3, 0, SyncNever, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file inside the segment directory")
	}
	// A pre-segmented v1 single-file log must be refused with a clear
	// error, never misread as a directory.
	v1 := filepath.Join(base, "old.wal")
	if err := os.WriteFile(v1, []byte("SSWAL\x00\x001rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(v1, 0, SyncNever, Options{}); err == nil {
		t.Fatal("Open accepted a v1 single-file log path")
	}
}

func TestOpStrings(t *testing.T) {
	if !reflect.DeepEqual(
		[]string{OpInsert.String(), OpDelete.String(), OpModify.String(), OpFlush.String(), Op(9).String()},
		[]string{"insert", "delete", "modify", "flush", "op(9)"}) {
		t.Fatal("Op.String drifted from the format documentation")
	}
}

// An oversized record must be refused at Append — if it reached a
// segment, scanFrames would read its length prefix as a torn tail and
// Open would silently truncate it (and every later acknowledged record)
// away.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "big")
	l, _ := openT(t, dir, 0)
	defer l.Close()
	huge := make([]metadata.File, 1100)
	longPath := string(make([]byte, 60<<10))
	for i := range huge {
		huge[i] = metadata.File{ID: uint64(i + 1), Path: longPath}
	}
	rec := Record{Op: OpInsert, Epoch: 1, Files: huge}
	if err := l.Append(&rec); err == nil {
		t.Fatal("Append accepted a record larger than maxRecordSize")
	}
	if err := l.Append(&Record{Op: OpDelete, Epoch: 1, ID: 5}); err != nil {
		t.Fatalf("log unusable after rejecting an oversized record: %v", err)
	}
	if l.Size() <= int64(segHeaderSize) {
		t.Fatal("follow-up append did not land")
	}
}

// TestGroupCommitConcurrentWriters is the group-commit durability
// contract under -race: N concurrent appenders under SyncAlways, every
// record acknowledged before the "crash" (a reopen without Close) must
// be replayed, and the committer must have actually batched — fewer
// fsync groups than acknowledged records.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncAlways, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Widen each commit window so appenders reliably pile up behind an
	// in-flight fsync — on tmpfs-fast storage the committer could
	// otherwise outpace them and batching would be timing-dependent.
	l.commitSyncHook = func() { time.Sleep(200 * time.Microsecond) }
	const writers = 8
	const perWriter = 50
	var mu sync.Mutex
	acked := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*1000 + i + 1)
				rec := Record{Op: OpDelete, Epoch: id, ID: id}
				if err := l.Append(&rec); err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.GroupedRecords != writers*perWriter {
		t.Fatalf("group committer acknowledged %d records, want %d", st.GroupedRecords, writers*perWriter)
	}
	if st.GroupCommits == 0 || st.GroupCommits >= st.GroupedRecords {
		t.Fatalf("no batching: %d commits for %d records", st.GroupCommits, st.GroupedRecords)
	}

	// SIGKILL-style: reopen the directory without Close — whatever the
	// in-memory state, every acknowledged record must be on disk.
	_, recs, err := Open(dir, 0, SyncAlways, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, r := range recs {
		got[r.ID] = true
	}
	for id := range acked {
		if !got[id] {
			t.Fatalf("acknowledged record %d missing after reopen", id)
		}
	}
	l.Close()
}

// TestGroupCommitSingleWriterLatency: a lone appender's enqueue wakes
// the committer immediately — one fsync per op, no waiting for a batch
// to fill.
func TestGroupCommitSingleWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncAlways, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.GroupedRecords != 5 || st.GroupCommits != 5 {
		t.Fatalf("single writer: %d commits / %d records, want 5/5", st.GroupCommits, st.GroupedRecords)
	}
}

// TestSyncIntervalPolicy: the periodic-fsync half of SyncInterval —
// Sync flushes the active segment, appends keep landing around it, and
// a closed log refuses both Sync and Rotate instead of touching a
// closed file.
func TestSyncIntervalPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncInterval, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(&Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatalf("periodic sync: %v", err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync accepted on a closed log")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate accepted on a closed log")
	}
	_, recs := openT(t, dir, 0)
	if len(recs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(recs))
	}
}

// TestAppendAfterCloseRejected: appends racing Close are either fully
// acknowledged or rejected — never stranded.
func TestAppendAfterCloseRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncAlways, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Op: OpDelete, Epoch: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Op: OpDelete, Epoch: 2, ID: 2}); err == nil {
		t.Fatal("append accepted on a closed log")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// FuzzSegmentScan fuzzes the frame scanner over arbitrary segment
// bodies: it must never panic, must report a valid prefix within
// bounds, and rescanning that prefix must be a fixed point (same
// records, same end).
func FuzzSegmentScan(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	seedDir := f.TempDir()
	l, _, err := Open(filepath.Join(seedDir, "w"), 0, SyncNever, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := randRecord(rng)
		if err := l.Append(&rec); err != nil {
			f.Fatal(err)
		}
	}
	seed, err := os.ReadFile(activePath(l))
	if err != nil {
		f.Fatal(err)
	}
	l.Close()
	f.Add(seed[segHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, valid := scanFrames(bytes.NewReader(body), 0, int64(len(body)))
		if valid < 0 || valid > int64(len(body)) {
			t.Fatalf("valid prefix %d out of bounds [0,%d]", valid, len(body))
		}
		recs2, valid2 := scanFrames(bytes.NewReader(body[:valid]), 0, valid)
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("rescan of valid prefix moved: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), valid2, valid)
		}
		for i := range recs {
			if !recordsEqual(recs[i], recs2[i]) {
				t.Fatalf("rescan record %d differs", i)
			}
		}
	})
}

// FuzzSegmentedLog drives a fuzz-chosen sequence of appends, rotations
// and deferred truncations over a tiny segment capacity, then reopens
// the directory and asserts the replay equals exactly the records the
// protocol still owes: everything appended after the last retired
// boundary, in order.
func FuzzSegmentedLog(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 0, 1})
	f.Add([]byte{2, 3, 2, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 2}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := filepath.Join(t.TempDir(), "w")
		l, _, err := Open(dir, 0, SyncNever, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		var all []Record
		markIdx := 0 // records appended before the latest Rotate
		dropIdx := 0 // records retired by DropSealed
		boundary := uint64(0)
		for i, op := range ops {
			switch op % 4 {
			case 0, 1:
				rec := Record{Op: OpDelete, Epoch: uint64(len(all) + 1), ID: uint64(i)}
				if err := l.Append(&rec); err != nil {
					t.Fatal(err)
				}
				all = append(all, rec)
			case 2:
				b, err := l.Rotate()
				if err != nil {
					t.Fatal(err)
				}
				if b > 0 {
					boundary, markIdx = b, len(all)
				}
			case 3:
				if err := l.DropSealed(boundary); err != nil {
					t.Fatal(err)
				}
				if boundary > 0 {
					dropIdx = markIdx
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err := Open(dir, 0, SyncNever, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		want := all[dropIdx:]
		if len(recs) != len(want) {
			t.Fatalf("replayed %d records, want %d (of %d appended, %d retired)",
				len(recs), len(want), len(all), dropIdx)
		}
		for i := range want {
			if !recordsEqual(want[i], recs[i]) {
				t.Fatalf("record %d differs after rotation/truncation sequence", i)
			}
		}
	})
}

// TestAppendAsync exercises the staged-append contract: records staged
// under an outer lock and awaited outside it are all durable and
// replay in staging order, the wait is idempotent, and staging
// failures surface synchronously with a nil wait.
func TestAppendAsync(t *testing.T) {
	t.Run("overlapped waits replay in order", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "w")
		l, _, err := Open(dir, 0, SyncAlways, Options{})
		if err != nil {
			t.Fatal(err)
		}
		const writers, perWriter = 8, 25
		var mu sync.Mutex // models the shard write lock: staging only
		var next atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					mu.Lock()
					rec := Record{Op: OpDelete, ID: next.Add(1)}
					wait, err := l.AppendAsync(&rec)
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
					if err := wait(); err != nil {
						t.Error(err)
						return
					}
					if err := wait(); err != nil { // idempotent
						t.Errorf("second wait: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err := Open(dir, 0, SyncNever, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != writers*perWriter {
			t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
		}
		for i, rec := range recs {
			if rec.ID != uint64(i+1) {
				t.Fatalf("record %d has id %d, want %d (staging order violated)", i, rec.ID, i+1)
			}
		}
	})

	t.Run("staging failure is synchronous", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "w")
		l, _, err := Open(dir, 0, SyncAlways, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		wait, err := l.AppendAsync(&Record{Op: OpFlush})
		if err == nil {
			t.Fatal("AppendAsync on a closed log staged successfully")
		}
		if wait != nil {
			t.Fatal("staging failure returned a non-nil wait")
		}
	})
}

// benchmarkAppendAlways measures SyncAlways append throughput at 8
// concurrent writers contending on an outer mutex that models the
// engine's shard write lock. With ackInLock the whole Append — fsync
// acknowledgement included — runs under the outer lock (the engine's
// pre-AppendAsync behaviour: same-shard writers serialize through each
// other's fsyncs); without it the writers stage via AppendAsync under
// the lock and await the group commit outside it, so their fsyncs
// overlap.
func benchmarkAppendAlways(b *testing.B, ackInLock bool) {
	dir := filepath.Join(b.TempDir(), "w")
	l, _, err := Open(dir, 0, SyncAlways, Options{SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const writers = 8
	var next atomic.Int64
	var shardMu sync.Mutex
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := Record{Op: OpDelete, ID: uint64(w)}
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				rec.Epoch = uint64(i)
				if ackInLock {
					shardMu.Lock()
					err := l.Append(&rec)
					shardMu.Unlock()
					if err != nil {
						b.Error(err)
						return
					}
					continue
				}
				shardMu.Lock()
				wait, err := l.AppendAsync(&rec)
				shardMu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
				if err := wait(); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if st := l.Stats(); st.GroupCommits > 0 {
		b.ReportMetric(float64(st.GroupedRecords)/float64(st.GroupCommits), "records/fsync")
	}
}

func BenchmarkWALAppendSyncAlways(b *testing.B)          { benchmarkAppendAlways(b, false) }
func BenchmarkWALAppendSyncAlwaysAckInLock(b *testing.B) { benchmarkAppendAlways(b, true) }
