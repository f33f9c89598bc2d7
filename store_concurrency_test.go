// Concurrent-access coverage for the Store's locking layer: parallel
// complex queries hammered against interleaved mutations must be
// race-clean (run with -race) and structurally consistent throughout.
package smartstore_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	smartstore "repro"
)

func buildConcurrencyStore(t testing.TB) (*smartstore.Store, *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Build from clones: Modify writes the stored *File's attributes in
	// place, and the test's readers consult set.Files without the store
	// lock — sharing the pointers would be a data race in the test, not
	// the store.
	clones := make([]*smartstore.File, len(set.Files))
	for i, f := range set.Files {
		cp := *f
		clones[i] = &cp
	}
	store, err := smartstore.Build(clones, smartstore.Config{Units: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return store, set
}

func TestConcurrentQueriesAndMutations(t *testing.T) {
	store, set := buildConcurrencyStore(t)
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}

	const (
		readers    = 4
		writers    = 2
		iterations = 60
	)
	var nextID atomic.Uint64
	nextID.Store(store.MaxFileID())

	var wg sync.WaitGroup
	// Readers interleave every query shape plus stats, and case 4 asks
	// as the prefetch example does: a point query for the record, then
	// a top-k with distances around its attributes.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				f := set.Files[(r*131+i*17)%len(set.Files)]
				switch i % 5 {
				case 0:
					res := ask(t, store, smartstore.NewRangeQuery(attrs,
						[]float64{0, 0}, []float64{f.Attrs[smartstore.AttrMTime], 1e12}))
					if res.Report.Messages == 0 && len(res.IDs) > 0 {
						t.Error("range query returned ids with zero messages")
					}
				case 1:
					res := ask(t, store, smartstore.NewTopKQuery(attrs,
						[]float64{f.Attrs[smartstore.AttrMTime], f.Attrs[smartstore.AttrReadBytes]}, 4))
					if len(res.IDs) > 4 {
						t.Errorf("top-4 returned %d ids", len(res.IDs))
					}
				case 2:
					ask(t, store, smartstore.NewPointQuery(f.Path))
				case 3:
					if st := store.Stats(); st.Units == 0 || st.Files == 0 {
						t.Errorf("stats degenerate mid-run: %+v", st)
					}
				case 4:
					res := ask(t, store, smartstore.NewPointQuery(f.Path).WithOptions(smartstore.QueryOptions{IncludeRecords: true}))
					if len(res.Records) != 1 {
						t.Errorf("point query for %s projected %d records", f.Path, len(res.Records))
						continue
					}
					a := res.Records[0].Attrs
					near := ask(t, store, smartstore.NewTopKQuery(attrs,
						[]float64{a[smartstore.AttrMTime], a[smartstore.AttrReadBytes]}, 3).
						WithOptions(smartstore.QueryOptions{IncludeDists: true}))
					if len(near.Dists) != len(near.IDs) {
						t.Errorf("top-3 returned %d ids but %d distances", len(near.IDs), len(near.Dists))
					}
				}
			}
		}(r)
	}
	// Writers insert fresh files, modify existing ones in whole and in
	// part, and delete what they inserted.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch i % 4 {
				case 0:
					id := nextID.Add(1)
					src := set.Files[(w*37+i)%len(set.Files)]
					if _, err := store.Insert(&smartstore.File{
						ID:    id,
						Path:  fmt.Sprintf("/conc/w%d/f%d", w, i),
						Attrs: src.Attrs,
					}); err != nil {
						t.Errorf("insert of fresh id %d: %v", id, err)
					}
				case 1:
					f := *set.Files[(w*53+i*29)%len(set.Files)]
					f.Attrs[smartstore.AttrSize] += 1
					if _, _, err := store.Modify(&f); err != nil {
						t.Errorf("modify: %v", err)
					}
				case 2:
					id := nextID.Add(1)
					src := set.Files[(w*41+i)%len(set.Files)]
					batch := []*smartstore.File{
						{ID: id, Path: fmt.Sprintf("/conc/w%d/b%d", w, i), Attrs: src.Attrs},
					}
					if _, err := store.InsertBatch(batch); err != nil {
						t.Errorf("batch insert of fresh id %d: %v", id, err)
					}
					if _, _, err := store.Delete(id); err != nil {
						t.Errorf("delete: %v", err)
					}
				case 3:
					id := set.Files[(w*61+i*17)%len(set.Files)].ID
					if _, _, err := store.ModifyAttrs(id, map[smartstore.Attr]float64{smartstore.AttrATime: float64(i)}); err != nil {
						t.Errorf("modify attrs: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := store.Epoch(); got == 0 {
		t.Fatal("mutation epoch never advanced")
	}
	st := store.Stats()
	if st.Files < 2000 {
		t.Fatalf("files lost under concurrency: %d < 2000", st.Files)
	}
}

func TestEpochAdvancesPerMutation(t *testing.T) {
	store, set := buildConcurrencyStore(t)
	if store.Epoch() != 0 {
		t.Fatalf("fresh store epoch %d", store.Epoch())
	}
	f := &smartstore.File{ID: store.MaxFileID() + 1, Path: "/epoch/a.dat", Attrs: set.Files[0].Attrs}
	if _, err := store.Insert(f); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if store.Epoch() != 1 {
		t.Fatalf("epoch after insert: %d", store.Epoch())
	}
	store.Modify(f)
	store.Delete(f.ID)
	if store.Epoch() != 3 {
		t.Fatalf("epoch after modify+delete: %d", store.Epoch())
	}
	// No-op mutations must not invalidate caches: delete of a missing
	// id, modify of a missing file.
	if _, found, _ := store.Delete(f.ID); found {
		t.Fatal("second delete reported found")
	}
	missing := *f
	missing.ID = store.MaxFileID() + 100
	if _, found, _ := store.Modify(&missing); found {
		t.Fatal("modify of missing id reported found")
	}
	if store.Epoch() != 3 {
		t.Fatalf("no-op mutations advanced epoch to %d", store.Epoch())
	}
	// Queries must not advance the epoch.
	ask(t, store, smartstore.NewPointQuery("/epoch/a.dat"))
	ask(t, store, smartstore.NewRangeQuery([]smartstore.Attr{smartstore.AttrMTime}, []float64{0}, []float64{1}))
	if store.Epoch() != 3 {
		t.Fatalf("read path advanced epoch to %d", store.Epoch())
	}
	// Empty batches commit nothing and bump nothing.
	if _, err := store.InsertBatch(nil); err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
	if store.Epoch() != 3 {
		t.Fatalf("empty batch advanced epoch to %d", store.Epoch())
	}
	// Batches reusing a stored id, repeating an id internally, or
	// missing an id are rejected whole without bumping the epoch.
	existing := set.Files[0]
	dup := &smartstore.File{ID: existing.ID, Path: "/epoch/dup.dat", Attrs: existing.Attrs}
	if _, err := store.InsertBatch([]*smartstore.File{dup}); err == nil {
		t.Fatal("batch with already-stored id accepted")
	}
	a := &smartstore.File{ID: store.MaxFileID() + 50, Path: "/epoch/x.dat", Attrs: existing.Attrs}
	b := &smartstore.File{ID: a.ID, Path: "/epoch/y.dat", Attrs: existing.Attrs}
	if _, err := store.InsertBatch([]*smartstore.File{a, b}); err == nil {
		t.Fatal("batch with internal duplicate id accepted")
	}
	if _, err := store.InsertBatch([]*smartstore.File{{Path: "/epoch/noid.dat"}}); err == nil {
		t.Fatal("batch with zero id accepted")
	}
	if store.Epoch() != 3 {
		t.Fatalf("rejected batches advanced epoch to %d", store.Epoch())
	}
	if ids := ask(t, store, smartstore.NewPointQuery("/epoch/x.dat")).IDs; len(ids) != 0 {
		t.Fatal("rejected batch partially inserted")
	}
}
