package smartstore_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/wal"
)

// segHeaderOnly is the on-disk size of an empty WAL segment (header
// only) — what each shard's directory holds right after a checkpoint
// retired everything.
const segHeaderOnly = int64(wal.SegmentHeaderSize)

// buildDurableStore deploys a durable store over a synthesized corpus
// in a fresh data dir. The store holds copies of set.Files: Modify
// rewrites a stored record in place, and the tests read set.Files from
// other goroutines.
func buildDurableStore(t testing.TB, dir string, files, units, shards int) (*smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", files, 17)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(cloneFiles(set.Files), smartstore.Config{
		Units:      units,
		Shards:     shards,
		Seed:       17,
		DataDir:    dir,
		Durability: smartstore.DurabilityNever, // process-crash tests; fsync policy is orthogonal
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, set
}

// reopen recovers the data dir as Open would after a crash.
func reopen(t testing.TB, dir string) *smartstore.Store {
	t.Helper()
	store, err := smartstore.Open(smartstore.Config{
		Seed:       17,
		DataDir:    dir,
		Durability: smartstore.DurabilityNever,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return store
}

func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rangeIDs runs a wide on-line range query (exact on propagated state).
func rangeIDs(t testing.TB, store *smartstore.Store) []uint64 {
	t.Helper()
	res, err := store.Do(context.Background(), smartstore.NewRangeQuery(
		[]smartstore.Attr{smartstore.AttrMTime},
		[]float64{-1e18}, []float64{1e18},
	).WithOptions(smartstore.QueryOptions{Mode: smartstore.ModeOnline}))
	if err != nil {
		t.Fatal(err)
	}
	return sortedIDs(res.IDs)
}

// TestCrashRecoveryFourShards is the recover-equals-pre-crash state
// test: a 4-shard durable store takes a concurrent mutation storm
// (multi-shard insert batches, deletes, modifies — run under -race in
// CI), is dropped without Close to simulate SIGKILL, and must reopen
// with identical files, epoch, max id, records and query answers.
func TestCrashRecoveryFourShards(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 800, 12, 4)

	const workers = 4
	base := store.MaxFileID()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch i % 3 {
				case 0: // multi-file batch: attrs sampled across the corpus span shards
					batch := make([]*smartstore.File, 3)
					for j := range batch {
						src := set.Files[(w*131+i*17+j*271)%len(set.Files)]
						batch[j] = &smartstore.File{
							ID:    base + uint64(w*1000+i*10+j+1),
							Path:  fmt.Sprintf("/crash/w%d/i%d/f%d", w, i, j),
							Attrs: src.Attrs,
						}
					}
					if _, err := store.InsertBatch(batch); err != nil {
						t.Errorf("insert batch: %v", err)
					}
				case 1: // modify a seed file
					f := *set.Files[(w*53+i*29)%len(set.Files)]
					f.Attrs[smartstore.AttrSize] += float64(i)
					if _, _, err := store.Modify(&f); err != nil {
						t.Errorf("modify: %v", err)
					}
				case 2: // delete one of this worker's earlier inserts
					if _, _, err := store.Delete(base + uint64(w*1000+(i-2)*10+1)); err != nil {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	preStats := store.Stats()
	preEpoch := store.Epoch()
	preMax := store.MaxFileID()
	if preEpoch == 0 || preStats.Files <= 800 {
		t.Fatalf("workload did not mutate: epoch %d files %d", preEpoch, preStats.Files)
	}
	preRange := rangeIDs(t, store)
	sample := *set.Files[7]

	// Crash: no Close, no final checkpoint — the WAL tails carry
	// everything since Build's initial checkpoint.
	recovered := reopen(t, dir)
	defer recovered.Close()

	if got := recovered.Stats(); got.Files != preStats.Files {
		t.Fatalf("recovered files = %d, want %d", got.Files, preStats.Files)
	}
	if got := recovered.MaxFileID(); got != preMax {
		t.Fatalf("recovered MaxFileID = %d, want %d", got, preMax)
	}
	if got := recovered.Epoch(); got != preEpoch {
		// Every effectual mutation is logged, so the recovered epoch
		// must match the pre-crash value exactly — the /v1/stats
		// guarantee.
		t.Fatalf("recovered epoch = %d, want %d", got, preEpoch)
	}
	postRange := rangeIDs(t, recovered)
	if len(postRange) != len(preRange) {
		t.Fatalf("recovered range answer %d ids, want %d", len(postRange), len(preRange))
	}
	for i := range preRange {
		if preRange[i] != postRange[i] {
			t.Fatalf("range id %d: recovered %d, want %d", i, postRange[i], preRange[i])
		}
	}
	if f, ok := recovered.FileByID(sample.ID); !ok || f.Path != sample.Path {
		t.Fatalf("recovered FileByID(%d) = %+v, %v", sample.ID, f, ok)
	}
	// The workload's modifies must have survived: worker 0 iteration 1
	// touched set.Files[29] last... spot-check one inserted path.
	res, err := recovered.Do(context.Background(),
		smartstore.NewPointQuery("/crash/w1/i3/f2"))
	if err != nil || len(res.IDs) == 0 {
		t.Fatalf("recovered point query: ids %v err %v", res.IDs, err)
	}
}

// TestCrashRecoveryLosesNothingAfterCleanClose: a clean Close
// checkpoints, so reopening replays an empty tail and still matches.
func TestCleanCloseReopens(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 300, 8, 2)
	nf := &smartstore.File{ID: store.MaxFileID() + 1, Path: "/clean/a.dat", Attrs: set.Files[3].Attrs}
	if _, err := store.Insert(nf); err != nil {
		t.Fatal(err)
	}
	want := store.Stats().Files
	wantEpoch := store.Epoch()
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for i, sz := range storeWALSizesOnDisk(t, dir, 2) {
		if sz != segHeaderOnly { // one empty segment: Close's checkpoint retired the rest
			t.Fatalf("shard %d WAL holds %d bytes after clean Close, want %d", i, sz, segHeaderOnly)
		}
		if n := len(shardSegFiles(t, dir, i)); n != 1 {
			t.Fatalf("shard %d holds %d segment files after clean Close, want 1", i, n)
		}
	}
	back := reopen(t, dir)
	defer back.Close()
	if got := back.Stats().Files; got != want {
		t.Fatalf("reopened files = %d, want %d", got, want)
	}
	if got := back.Epoch(); got != wantEpoch {
		t.Fatalf("reopened epoch = %d, want %d", got, wantEpoch)
	}
}

// shardSegFiles lists shard i's WAL segment files in sequence order.
func shardSegFiles(t testing.TB, dir string, shard int) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", shard), "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

func storeWALSizesOnDisk(t testing.TB, dir string, shards int) []int64 {
	t.Helper()
	out := make([]int64, shards)
	for i := range out {
		for _, p := range shardSegFiles(t, dir, i) {
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			out[i] += info.Size()
		}
	}
	return out
}

// wipeShardWAL deletes every segment file in one shard's WAL directory
// — the fault-injection stand-in for a shard whose log never reached
// disk.
func wipeShardWAL(t testing.TB, dir string, shard int) {
	t.Helper()
	for _, p := range shardSegFiles(t, dir, shard) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncompleteMultiShardBatchDroppedAtomically: a batch logged to
// only some of its target shards (the crash hit between appends, or a
// tail was lost) was never acknowledged — recovery must drop it on
// every shard, not replay the fragments that survived.
func TestIncompleteMultiShardBatchDroppedAtomically(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 600, 12, 4)
	preFiles := store.Stats().Files
	base := store.MaxFileID()

	// One batch whose attrs are sampled far apart in the corpus, so it
	// spans multiple shards (verified below via WAL growth).
	batch := make([]*smartstore.File, 8)
	for j := range batch {
		batch[j] = &smartstore.File{
			ID:    base + uint64(j) + 1,
			Path:  fmt.Sprintf("/atomic/f%d", j),
			Attrs: set.Files[(j*577+13)%len(set.Files)].Attrs,
		}
	}
	if _, err := store.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	sizes := store.WALSizes()
	grown := []int{}
	for i, sz := range sizes {
		if sz > segHeaderOnly {
			grown = append(grown, i)
		}
	}
	if len(grown) < 2 {
		t.Skipf("batch landed on %d shards; need ≥ 2 for the atomicity check", len(grown))
	}

	// Crash, then lose one target shard's copy of the batch record.
	wipeShardWAL(t, dir, grown[0])
	recovered := reopen(t, dir)
	defer recovered.Close()
	if got := recovered.Stats().Files; got != preFiles {
		t.Fatalf("incomplete batch partially replayed: %d files, want %d", got, preFiles)
	}
	for j := range batch {
		if _, ok := recovered.FileByID(batch[j].ID); ok {
			t.Fatalf("fragment of dropped batch resolvable: id %d", batch[j].ID)
		}
	}
}

// TestKillMidBatchEveryTornOffset cuts one target's final WAL record at
// every byte offset: whatever the tear, recovery must agree with the
// atomic-batch guarantee — the batch is gone everywhere.
func TestKillMidBatchEveryTornOffset(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 400, 8, 4)
	preFiles := store.Stats().Files
	base := store.MaxFileID()
	batch := make([]*smartstore.File, 8)
	for j := range batch {
		batch[j] = &smartstore.File{
			ID:    base + uint64(j) + 1,
			Path:  fmt.Sprintf("/torn/f%d", j),
			Attrs: set.Files[(j*487+5)%len(set.Files)].Attrs,
		}
	}
	if _, err := store.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	sizes := store.WALSizes()
	victim := -1
	for i, sz := range sizes {
		if sz > segHeaderOnly {
			victim = i
		}
	}
	if victim < 0 || len(sizes) < 2 {
		t.Fatal("batch landed nowhere")
	}
	multi := 0
	for _, sz := range sizes {
		if sz > segHeaderOnly {
			multi++
		}
	}
	if multi < 2 {
		t.Skip("batch landed on one shard; tearing it is covered by the wal package tests")
	}

	// The fresh store's writes fit one segment per shard; tear that one.
	victimSegs := shardSegFiles(t, dir, victim)
	if len(victimSegs) != 1 {
		t.Fatalf("victim shard holds %d segments, want 1", len(victimSegs))
	}
	victimPath := victimSegs[0]
	intact, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the other logs and the snapshot pristine across iterations.
	pristine := snapshotDataDir(t, dir)

	for off := int64(segHeaderOnly); off < int64(len(intact)); off += 7 { // stride keeps the test fast; wal tests cover every offset
		restoreDataDir(t, pristine)
		if err := os.Truncate(victimPath, off); err != nil {
			t.Fatal(err)
		}
		recovered := reopen(t, dir)
		if got := recovered.Stats().Files; got != preFiles {
			t.Fatalf("tear at %d: %d files, want %d (batch must drop atomically)", off, got, preFiles)
		}
		recovered.Close()
	}
}

// snapshotDataDir captures every file under dir (recursively — shard
// WALs are segment directories) so a fault-injection loop can restore
// the exact pre-fault on-disk state between iterations.
func snapshotDataDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out[p] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func restoreDataDir(t testing.TB, pristine map[string][]byte) {
	t.Helper()
	for p, b := range pristine {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryIgnoresPreCheckpointRecords simulates a crash between the
// checkpoint snapshot's rename and the WAL truncation that follows it:
// the stale records carry epochs at or below the snapshot's truncation
// points and must not double-apply.
func TestRecoveryIgnoresPreCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 300, 8, 2)
	base := store.MaxFileID()
	for j := 0; j < 6; j++ {
		f := &smartstore.File{ID: base + uint64(j) + 1, Path: fmt.Sprintf("/ckpt/f%d", j),
			Attrs: set.Files[j*37%len(set.Files)].Attrs}
		if _, err := store.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	// Save the WAL segments, checkpoint (rotating past and deleting
	// them), then put them back — exactly the on-disk state of a crash
	// after the snapshot rename but before the deferred truncation.
	walBytes := map[string][]byte{}
	for i := 0; i < 2; i++ {
		for _, p := range shardSegFiles(t, dir, i) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			walBytes[p] = b
		}
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := store.Stats().Files
	wantEpoch := store.Epoch()
	for p, b := range walBytes {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered := reopen(t, dir)
	defer recovered.Close()
	if got := recovered.Stats().Files; got != want {
		t.Fatalf("stale records double-applied: %d files, want %d", got, want)
	}
	if got := recovered.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
}

// TestFlushEpochSurvivesCrash: logs written before acknowledged writes
// became visible at once hold body-free flush records, each stamped
// with the epoch its propagation bumped. Such a log still replays, by
// recovery and by shipping, along the stamped epoch trajectory: the
// flush applies nothing but keeps its epoch, and the inserts on either
// side of it answer.
func TestFlushEpochSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 300, 8, 1)
	var snap bytes.Buffer
	if err := store.Save(&snap); err != nil {
		t.Fatal(err)
	}
	e0, n0 := store.Epoch(), store.Stats().Files
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	a := *set.Files[9]
	a.ID, a.Path = 700001, "/fl/a.dat"
	b := *set.Files[11]
	b.ID, b.Path = 700002, "/fl/b.dat"
	recs := []wal.Record{
		{Op: wal.OpInsert, Epoch: e0 + 1, Files: []smartstore.File{a}},
		{Op: wal.OpFlush, Epoch: e0 + 2},
		{Op: wal.OpInsert, Epoch: e0 + 3, Files: []smartstore.File{b}},
	}
	log, tail, err := wal.Open(filepath.Join(dir, "shard-0000.wal"), 0, wal.SyncNever, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("clean close left %d records", len(tail))
	}
	for i := range recs {
		if err := log.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	answers := func(t *testing.T, s *smartstore.Store) {
		t.Helper()
		if got := s.Stats().Files; got != n0+2 {
			t.Fatalf("files = %d, want %d", got, n0+2)
		}
		for _, f := range []smartstore.File{a, b} {
			if got := ask(t, s, smartstore.NewPointQuery(f.Path)).IDs; !slices.Equal(got, []uint64{f.ID}) {
				t.Fatalf("point %s = %v, want [%d]", f.Path, got, f.ID)
			}
		}
	}
	t.Run("recover", func(t *testing.T) {
		recovered := reopen(t, dir)
		defer recovered.Close()
		if got := recovered.Epoch(); got != e0+3 {
			t.Fatalf("recovered epoch = %d, want %d", got, e0+3)
		}
		answers(t, recovered)
	})
	t.Run("ship", func(t *testing.T) {
		follower, err := smartstore.Load(&snap, smartstore.Config{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		for _, rec := range recs {
			if n, err := follower.ApplyReplicated(0, []wal.Record{rec}); err != nil || n != 1 {
				t.Fatalf("apply %s: n=%d err=%v", rec.Op, n, err)
			}
			if got := follower.Epoch(); got != rec.Epoch {
				t.Fatalf("after %s: epoch %d, want the stamped %d", rec.Op, got, rec.Epoch)
			}
		}
		answers(t, follower)
	})
}

// A crash between a checkpoint's temp-file write and its rename leaves
// an orphan; the next recovery (or initialization) must sweep it.
func TestRecoverySweepsStaleTempSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, _ := buildDurableStore(t, dir, 200, 6, 2)
	store.Close()
	orphan := filepath.Join(dir, "snapshot.snap.tmp12345")
	if err := os.WriteFile(orphan, []byte("half-written checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	back := reopen(t, dir)
	back.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale temp snapshot survived recovery: %v", err)
	}
}

func TestBuildRefusesInitializedDataDir(t *testing.T) {
	dir := t.TempDir()
	store, set := buildDurableStore(t, dir, 200, 6, 2)
	store.Close()
	if _, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 6, Shards: 2, Seed: 17, DataDir: dir,
	}); err == nil {
		t.Fatal("Build re-initialized a data dir holding a deployment")
	}
}

func TestOpenRequiresInitializedDataDir(t *testing.T) {
	if _, err := smartstore.Open(smartstore.Config{DataDir: t.TempDir()}); err == nil {
		t.Fatal("Open succeeded on an empty data dir")
	}
	if _, err := smartstore.Open(smartstore.Config{}); err == nil {
		t.Fatal("Open succeeded without a data dir")
	}
}

// TestSizeTriggeredCheckpoint: with Config.CheckpointBytes set, a
// mutation stream that outgrows the threshold must trigger background
// checkpoints that fold the logs into the snapshot — the WAL shrinks
// back without any explicit Checkpoint call — and the store stays
// recoverable throughout.
func TestSizeTriggeredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	set, err := smartstore.GenerateTrace("MSN", 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units:           8,
		Shards:          2,
		Seed:            17,
		DataDir:         dir,
		Durability:      smartstore.DurabilityNever,
		CheckpointBytes: 8 << 10,
		WALSegmentBytes: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := store.MaxFileID()
	for j := 0; j < 200; j++ {
		f := &smartstore.File{
			ID:    base + uint64(j) + 1,
			Path:  fmt.Sprintf("/auto/f%d", j),
			Attrs: set.Files[j%len(set.Files)].Attrs,
		}
		if _, err := store.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for store.WALStats().AutoCheckpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no size-triggered checkpoint after the WAL outgrew the threshold (sizes %v)",
				store.WALSizes())
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := store.Stats().Files
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back := reopen(t, dir)
	defer back.Close()
	if got := back.Stats().Files; got != want {
		t.Fatalf("reopened files = %d, want %d", got, want)
	}
}

// TestWALStatsGroupCommitCounters: under DurabilityAlways every
// acknowledged mutation is covered by a group commit, and the counters
// surface through the Store facade (and from there /v1/stats).
func TestWALStatsGroupCommitCounters(t *testing.T) {
	dir := t.TempDir()
	set, err := smartstore.GenerateTrace("MSN", 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 6, Shards: 2, Seed: 17, DataDir: dir,
		Durability: smartstore.DurabilityAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := store.MaxFileID()
	const inserts = 10
	for j := 0; j < inserts; j++ {
		f := &smartstore.File{ID: base + uint64(j) + 1, Path: fmt.Sprintf("/gc/f%d", j),
			Attrs: set.Files[j].Attrs}
		if _, err := store.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	ws := store.WALStats()
	if ws.GroupedRecords < inserts {
		t.Fatalf("group committer acknowledged %d records, want ≥ %d", ws.GroupedRecords, inserts)
	}
	if ws.GroupCommits == 0 || ws.GroupCommits > ws.GroupedRecords {
		t.Fatalf("implausible group-commit counters: %d commits / %d records",
			ws.GroupCommits, ws.GroupedRecords)
	}
	if ws.Segments < 2 || ws.Bytes <= 2*segHeaderOnly {
		t.Fatalf("implausible segment inventory: %d segments, %d bytes", ws.Segments, ws.Bytes)
	}
}

func TestParseDurability(t *testing.T) {
	for _, d := range []smartstore.Durability{
		smartstore.DurabilityAlways, smartstore.DurabilityInterval, smartstore.DurabilityNever,
	} {
		back, err := smartstore.ParseDurability(d.String())
		if err != nil || back != d {
			t.Fatalf("ParseDurability(%q) = %v, %v", d.String(), back, err)
		}
	}
	if _, err := smartstore.ParseDurability("sometimes"); err == nil {
		t.Fatal("ParseDurability accepted junk")
	}
}
