// Sharded-engine coverage: a multi-shard store hammered by concurrent
// queries and mutations must be race-clean (run with -race), and once
// quiesced its merged fan-out answers must equal the single-shard
// ground truth — sharding changes the execution, never the answer.
package smartstore_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	smartstore "repro"
)

// cloneFiles deep-copies a trace's files so two stores never share
// record pointers (Modify writes stored records in place).
func cloneFiles(files []*smartstore.File) []*smartstore.File {
	out := make([]*smartstore.File, len(files))
	for i, f := range files {
		cp := *f
		out[i] = &cp
	}
	return out
}

// buildShardPair builds the same corpus twice: once unsharded (the
// ground truth) and once across shards. ModeOnline makes complex-query
// answers exact on the propagated snapshot, so the two stores must
// agree whenever they hold the same data.
func buildShardPair(t testing.TB, shards int) (s1, sN *smartstore.Store, set *smartstore.TraceSet) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", 2400, 17)
	if err != nil {
		t.Fatal(err)
	}
	s1, err = smartstore.Build(cloneFiles(set.Files),
		smartstore.Config{Units: 24, Seed: 17, Mode: smartstore.ModeOnline})
	if err != nil {
		t.Fatal(err)
	}
	sN, err = smartstore.Build(cloneFiles(set.Files),
		smartstore.Config{Units: 24, Shards: shards, Seed: 17, Mode: smartstore.ModeOnline})
	if err != nil {
		t.Fatal(err)
	}
	return s1, sN, set
}

// assertSameAnswers compares every query shape between the ground-truth
// store and the sharded store. Top-k answers must agree as ordered
// lists (both sides break distance ties by ascending id); range and
// point answers as sets.
func assertSameAnswers(t *testing.T, s1, sN *smartstore.Store, set *smartstore.TraceSet) {
	t.Helper()
	ctx := context.Background()
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}

	for i := 0; i < 12; i++ {
		f := set.Files[(i*211)%len(set.Files)]
		hi := f.Attrs[smartstore.AttrMTime]
		rq := smartstore.NewRangeQuery(attrs, []float64{0, 0}, []float64{hi, 1e12})
		a, err := s1.Do(ctx, rq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sN.Do(ctx, rq)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.IDs) != len(b.IDs) {
			t.Fatalf("range %d: ground truth %d ids, sharded %d", i, len(a.IDs), len(b.IDs))
		}
		in := make(map[uint64]bool, len(a.IDs))
		for _, id := range a.IDs {
			in[id] = true
		}
		for _, id := range b.IDs {
			if !in[id] {
				t.Fatalf("range %d: sharded returned id %d missing from ground truth", i, id)
			}
		}

		tq := smartstore.NewTopKQuery(attrs,
			[]float64{f.Attrs[smartstore.AttrMTime], f.Attrs[smartstore.AttrReadBytes]}, 8)
		ka, err := s1.Do(ctx, tq)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := sN.Do(ctx, tq)
		if err != nil {
			t.Fatal(err)
		}
		if len(ka.IDs) != len(kb.IDs) {
			t.Fatalf("topk %d: ground truth %d ids, sharded %d", i, len(ka.IDs), len(kb.IDs))
		}
		for j := range ka.IDs {
			if ka.IDs[j] != kb.IDs[j] {
				t.Fatalf("topk %d[%d]: ground truth %d, sharded %d\n%v\n%v",
					i, j, ka.IDs[j], kb.IDs[j], ka.IDs, kb.IDs)
			}
		}

		pa, err := s1.Do(ctx, smartstore.NewPointQuery(f.Path))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sN.Do(ctx, smartstore.NewPointQuery(f.Path))
		if err != nil {
			t.Fatal(err)
		}
		if len(pa.IDs) != len(pb.IDs) {
			t.Fatalf("point %d: ground truth %d ids, sharded %d", i, len(pa.IDs), len(pb.IDs))
		}
	}
}

// TestShardedStoreMatchesSingleShardUnderStress drives concurrent
// Do/Insert/Modify/Delete across a 4-shard store while mirroring every
// mutation onto an unsharded ground-truth store, then quiesces both and
// asserts the merged fan-out answers equal the single-shard answers.
func TestShardedStoreMatchesSingleShardUnderStress(t *testing.T) {
	s1, s4, set := buildShardPair(t, 4)
	assertSameAnswers(t, s1, s4, set) // pre-stress: identical corpora agree

	ctx := context.Background()
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}
	const (
		readers    = 4
		writers    = 3
		iterations = 50
	)
	var nextID atomic.Uint64
	nextID.Store(s1.MaxFileID())

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				f := set.Files[(r*131+i*17)%len(set.Files)]
				switch i % 4 {
				case 0:
					q := smartstore.NewRangeQuery(attrs,
						[]float64{0, 0}, []float64{f.Attrs[smartstore.AttrMTime], 1e12})
					if _, err := s4.Do(ctx, q); err != nil {
						t.Errorf("range under stress: %v", err)
					}
				case 1:
					q := smartstore.NewTopKQuery(attrs,
						[]float64{f.Attrs[smartstore.AttrMTime], f.Attrs[smartstore.AttrReadBytes]}, 5)
					if res, err := s4.Do(ctx, q); err != nil {
						t.Errorf("topk under stress: %v", err)
					} else if len(res.IDs) > 5 {
						t.Errorf("top-5 returned %d ids", len(res.IDs))
					}
				case 2:
					if _, err := s4.Do(ctx, smartstore.NewPointQuery(f.Path)); err != nil {
						t.Errorf("point under stress: %v", err)
					}
				case 3:
					if st := s4.Stats(); st.Files == 0 || len(st.PerShard) != 4 {
						t.Errorf("stats degenerate mid-run: %+v", st)
					}
				}
			}
		}(r)
	}
	// Writers mirror every mutation onto both stores so the corpora
	// stay identical; each store gets its own record copies.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch i % 4 {
				case 0:
					id := nextID.Add(1)
					src := set.Files[(w*37+i)%len(set.Files)]
					mk := func() *smartstore.File {
						return &smartstore.File{
							ID:    id,
							Path:  fmt.Sprintf("/shard/w%d/f%d", w, i),
							Attrs: src.Attrs,
						}
					}
					if _, err := s1.Insert(mk()); err != nil {
						t.Errorf("ground-truth insert: %v", err)
					}
					if _, err := s4.Insert(mk()); err != nil {
						t.Errorf("sharded insert: %v", err)
					}
				case 1:
					f := *set.Files[(w*53+i*29)%len(set.Files)]
					f.Attrs[smartstore.AttrSize] += 1
					g := f
					if _, _, err := s1.Modify(&f); err != nil {
						t.Errorf("ground-truth modify: %v", err)
					}
					if _, _, err := s4.Modify(&g); err != nil {
						t.Errorf("sharded modify: %v", err)
					}
				case 2:
					id := nextID.Add(1)
					src := set.Files[(w*41+i)%len(set.Files)]
					mk := func() []*smartstore.File {
						return []*smartstore.File{{
							ID:    id,
							Path:  fmt.Sprintf("/shard/w%d/b%d", w, i),
							Attrs: src.Attrs,
						}}
					}
					if _, err := s1.InsertBatch(mk()); err != nil {
						t.Errorf("ground-truth batch: %v", err)
					}
					if _, err := s4.InsertBatch(mk()); err != nil {
						t.Errorf("sharded batch: %v", err)
					}
					if _, found, _ := s1.Delete(id); !found {
						t.Errorf("ground-truth delete of %d not found", id)
					}
					if _, found, _ := s4.Delete(id); !found {
						t.Errorf("sharded delete of %d not found", id)
					}
				case 3:
					// The value depends on the id alone, so writers racing
					// on one id leave both stores equal.
					id := set.Files[(w*61+i*17)%len(set.Files)].ID
					attrs := map[smartstore.Attr]float64{smartstore.AttrATime: float64(id % 9973)}
					if _, _, err := s1.ModifyAttrs(id, attrs); err != nil {
						t.Errorf("ground-truth modify attrs: %v", err)
					}
					if _, _, err := s4.ModifyAttrs(id, attrs); err != nil {
						t.Errorf("sharded modify attrs: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if s4.Epoch() == 0 {
		t.Fatal("sharded mutation epoch never advanced")
	}
	// Quiesced, the merged answers must again equal the single-shard
	// ground truth.
	if f1, f4 := s1.Stats().Files, s4.Stats().Files; f1 != f4 {
		t.Fatalf("file counts diverged: ground truth %d, sharded %d", f1, f4)
	}
	assertSameAnswers(t, s1, s4, set)
}

// TestShardedEpochComposition checks that the store-wide epoch is the
// sum of per-shard epochs and stays monotonic across mixed mutations.
func TestShardedEpochComposition(t *testing.T) {
	_, s4, set := buildShardPair(t, 4)
	if s4.Epoch() != 0 {
		t.Fatalf("fresh epoch %d", s4.Epoch())
	}
	last := uint64(0)
	for i := 0; i < 20; i++ {
		src := set.Files[i*7]
		f := &smartstore.File{
			ID:    s4.MaxFileID() + 1,
			Path:  fmt.Sprintf("/epoch/s%d.dat", i),
			Attrs: src.Attrs,
		}
		if _, err := s4.Insert(f); err != nil {
			t.Fatal(err)
		}
		if e := s4.Epoch(); e != last+1 {
			t.Fatalf("insert %d: epoch %d, want %d", i, e, last+1)
		}
		last++
	}
	var perShardSum uint64
	for _, sh := range s4.Stats().PerShard {
		perShardSum += sh.Epoch
	}
	if perShardSum != s4.Epoch() {
		t.Fatalf("per-shard epochs sum to %d, composed epoch %d", perShardSum, s4.Epoch())
	}
}
