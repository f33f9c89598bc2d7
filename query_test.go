package smartstore_test

import (
	"context"
	"errors"
	"testing"

	smartstore "repro"
)

func TestDoValidationErrors(t *testing.T) {
	store, _ := buildStore(t, 400, smartstore.Config{Units: 8})
	ctx := context.Background()
	attrs := []smartstore.Attr{smartstore.AttrMTime}

	cases := []struct {
		name string
		q    smartstore.Query
	}{
		{"range dim mismatch", smartstore.NewRangeQuery(attrs, []float64{0, 1}, []float64{2})},
		{"range no dims", smartstore.NewRangeQuery(nil, nil, nil)},
		{"topk dim mismatch", smartstore.NewTopKQuery(attrs, []float64{1, 2}, 3)},
		{"topk k=0", smartstore.NewTopKQuery(attrs, []float64{1}, 0)},
		{"topk negative k", smartstore.NewTopKQuery(attrs, []float64{1}, -4)},
		{"negative limit", smartstore.NewPointQuery("/x").
			WithOptions(smartstore.QueryOptions{Limit: -1})},
		{"unknown kind", smartstore.Query{Kind: smartstore.QueryKind(99)}},
	}
	for _, tc := range cases {
		_, err := store.Do(ctx, tc.q)
		if err == nil {
			t.Errorf("%s: Do returned nil error", tc.name)
			continue
		}
		if !errors.Is(err, smartstore.ErrInvalidQuery) {
			t.Errorf("%s: error %v does not wrap ErrInvalidQuery", tc.name, err)
		}
	}
}

func TestDoCancelledContext(t *testing.T) {
	store, set := buildStore(t, 400, smartstore.Config{Units: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := store.Do(ctx, smartstore.NewPointQuery(set.Files[0].Path))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with cancelled ctx: err %v, want context.Canceled", err)
	}
	// A valid query on a live context still works afterwards.
	if _, err := store.Do(context.Background(), smartstore.NewPointQuery(set.Files[0].Path)); err != nil {
		t.Fatalf("Do after cancellation: %v", err)
	}
}

func TestDoIncludeRecordsProjection(t *testing.T) {
	store, set := buildStore(t, 600, smartstore.Config{Units: 10})
	f := set.Files[100]
	res, err := store.Do(context.Background(), smartstore.NewPointQuery(f.Path).
		WithOptions(smartstore.QueryOptions{IncludeRecords: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("point query found nothing")
	}
	if len(res.Records) != len(res.IDs) {
		t.Fatalf("%d records for %d ids", len(res.Records), len(res.IDs))
	}
	for i, rec := range res.Records {
		if rec.ID != res.IDs[i] {
			t.Fatalf("record[%d] id %d != ids[%d] %d", i, rec.ID, i, res.IDs[i])
		}
		if rec.Path != f.Path {
			t.Fatalf("record path %q want %q", rec.Path, f.Path)
		}
	}

	// Without the option, no records travel.
	res, err = store.Do(context.Background(), smartstore.NewPointQuery(f.Path))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatalf("records projected without IncludeRecords: %d", len(res.Records))
	}
}

func TestDoLimitTruncation(t *testing.T) {
	store, _ := buildStore(t, 600, smartstore.Config{Units: 10})
	attrs := []smartstore.Attr{smartstore.AttrMTime}
	wide := smartstore.NewRangeQuery(attrs, []float64{0}, []float64{1e12})

	full, err := store.Do(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) < 10 {
		t.Fatalf("wide range matched only %d files", len(full.IDs))
	}
	if full.Truncated {
		t.Fatal("unlimited query reported truncation")
	}

	lim, err := store.Do(context.Background(), wide.
		WithOptions(smartstore.QueryOptions{Limit: 5, IncludeRecords: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.IDs) != 5 || !lim.Truncated {
		t.Fatalf("limit 5: %d ids, truncated=%v", len(lim.IDs), lim.Truncated)
	}
	if len(lim.Records) != 5 {
		t.Fatalf("limit 5 projected %d records", len(lim.Records))
	}
}

func TestDoPerQueryModeOverride(t *testing.T) {
	// Enough storage units that the off-line path's routed-group cap is
	// well below the group count — otherwise both paths search every
	// group and are indistinguishable.
	store, _ := buildStore(t, 3000, smartstore.Config{Units: 60}) // default ModeOffline
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}
	q := smartstore.NewRangeQuery(attrs, []float64{0, 0}, []float64{1e9, 1e12})

	off, err := store.Do(context.Background(), q.
		WithOptions(smartstore.QueryOptions{Mode: smartstore.ModeOffline}))
	if err != nil {
		t.Fatal(err)
	}
	on, err := store.Do(context.Background(), q.
		WithOptions(smartstore.QueryOptions{Mode: smartstore.ModeOnline}))
	if err != nil {
		t.Fatal(err)
	}
	// The on-line multicast contacts every first-level group host; the
	// off-line path only the routed subset — message counts must show it.
	if on.Report.Messages <= off.Report.Messages {
		t.Fatalf("online messages %d not above offline %d",
			on.Report.Messages, off.Report.Messages)
	}
	// The exact on-line snapshot answer is a superset of off-line recall.
	if len(on.IDs) < len(off.IDs) {
		t.Fatalf("online found %d ids, offline %d", len(on.IDs), len(off.IDs))
	}
}

func TestMaxFileIDIncremental(t *testing.T) {
	store, set := buildStore(t, 300, smartstore.Config{Units: 6})
	var want uint64
	for _, f := range set.Files {
		if f.ID > want {
			want = f.ID
		}
	}
	if got := store.MaxFileID(); got != want {
		t.Fatalf("MaxFileID %d want %d", got, want)
	}

	// Insert above the max; the incremental index must follow.
	src := set.Files[0]
	high := &smartstore.File{ID: want + 500, Path: "/max/high.dat", Attrs: src.Attrs}
	if _, err := store.Insert(high); err != nil {
		t.Fatal(err)
	}
	if got := store.MaxFileID(); got != want+500 {
		t.Fatalf("MaxFileID after insert %d want %d", got, want+500)
	}

	// Deleting the max falls back to the previous maximum.
	if _, found, _ := store.Delete(want + 500); !found {
		t.Fatal("delete of max id not found")
	}
	if got := store.MaxFileID(); got != want {
		t.Fatalf("MaxFileID after delete %d want %d", got, want)
	}
}

// TestTopKOrderedWhenPoolFitsK: a top-k whose pooled candidates number
// no more than k is still an answer "in ascending distance" — ids and
// dists ranked by (dist, id), in both modes — not the candidates in
// simulated reply-arrival order.
func TestTopKOrderedWhenPoolFitsK(t *testing.T) {
	store, set := buildStore(t, 60, smartstore.Config{Units: 6})
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes}
	for _, mode := range []smartstore.QueryMode{smartstore.ModeOffline, smartstore.ModeOnline} {
		for i := 0; i < 10; i++ {
			f := set.Files[i*5]
			point := []float64{f.Attrs[smartstore.AttrMTime], f.Attrs[smartstore.AttrReadBytes]}
			q := smartstore.NewTopKQuery(attrs, point, len(set.Files)+5).
				WithOptions(smartstore.QueryOptions{Mode: mode, IncludeDists: true})
			res, err := store.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IDs) < 2 || len(res.Dists) != len(res.IDs) {
				t.Fatalf("mode %d query %d: %d ids, %d dists", mode, i, len(res.IDs), len(res.Dists))
			}
			for j := 1; j < len(res.IDs); j++ {
				if res.Dists[j] < res.Dists[j-1] ||
					(res.Dists[j] == res.Dists[j-1] && res.IDs[j] < res.IDs[j-1]) {
					t.Fatalf("mode %d query %d: position %d (id %d, dist %g) ranks before position %d (id %d, dist %g)",
						mode, i, j, res.IDs[j], res.Dists[j], j-1, res.IDs[j-1], res.Dists[j-1])
				}
			}
		}
	}
}
