// Snapshot-consistency coverage: Store.Save must take every shard's
// read lock before capturing any shard, so a snapshot racing a
// multi-shard InsertBatch observes either the whole batch or none of
// it. Run with -race.
package smartstore_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	smartstore "repro"
	"repro/internal/snapshot"
)

func TestSaveUnderConcurrentInsertIsNeverTorn(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(cloneFiles(set.Files),
		smartstore.Config{Units: 16, Shards: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}

	// Batches of batchSize files each: because the base population is a
	// multiple of batchSize and batches commit atomically, every
	// consistent snapshot holds a multiple of batchSize files. A torn
	// snapshot — some of a batch's shards captured before the insert,
	// some after — breaks the invariant.
	const (
		batchSize = 5
		batches   = 40
		savers    = 3
	)
	if len(set.Files)%batchSize != 0 {
		t.Fatalf("population %d not a multiple of %d", len(set.Files), batchSize)
	}

	var nextID atomic.Uint64
	nextID.Store(store.MaxFileID())
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			batch := make([]*smartstore.File, batchSize)
			for j := range batch {
				src := set.Files[(b*batchSize+j)%len(set.Files)]
				batch[j] = &smartstore.File{
					ID:    nextID.Add(1),
					Path:  fmt.Sprintf("/save/b%d/f%d", b, j),
					Attrs: src.Attrs,
				}
			}
			if _, err := store.InsertBatch(batch); err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
		}
	}()

	var lastSnap []byte
	var snapMu sync.Mutex
	for s := 0; s < savers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := store.Save(&buf); err != nil {
					t.Errorf("Save under load: %v", err)
					return
				}
				snap, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Errorf("snapshot unreadable: %v", err)
					return
				}
				if n := snap.FileCount(); n%batchSize != 0 {
					t.Errorf("torn snapshot: %d files is not a multiple of %d", n, batchSize)
					return
				}
				snapMu.Lock()
				lastSnap = append(lastSnap[:0], buf.Bytes()...)
				snapMu.Unlock()
			}
		}()
	}
	wg.Wait()

	// The last snapshot taken mid-run must restore into a store that
	// answers queries and preserves the shard assignment.
	if lastSnap == nil {
		t.Fatal("no snapshot captured")
	}
	restored, err := smartstore.Load(bytes.NewReader(lastSnap), smartstore.Config{Seed: 23})
	if err != nil {
		t.Fatalf("restoring mid-run snapshot: %v", err)
	}
	if restored.Shards() != 4 {
		t.Fatalf("restored %d shards, want 4", restored.Shards())
	}
	if got := restored.Stats().Files; got < len(set.Files) || got%batchSize != 0 {
		t.Fatalf("restored %d files (base %d)", got, len(set.Files))
	}
	f := set.Files[99]
	if !slices.Contains(ask(t, restored, smartstore.NewPointQuery(f.Path)).IDs, f.ID) {
		t.Fatalf("restored store cannot find %q", f.Path)
	}
}
