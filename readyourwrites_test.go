package smartstore_test

import (
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/server"
)

// TestReadYourWrites checks that an acknowledged write answers the next
// query on every serving topology: one shard, four shards, and smartgate
// over two members. After a run of inserts, partial modifies and
// deletes, every point query and every on-line range and top-k query
// equals a linear scan over the acknowledged state; an off-line answer
// may miss what its routing skips, but never names a deleted file; and
// every projected record equals its file's last acknowledged write.
func TestReadYourWrites(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 600, 23)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)
	cfg := func(units, shards int) smartstore.Config {
		return smartstore.Config{Units: units, Shards: shards, Seed: 23, Normalizer: norm}
	}
	serve := func(t *testing.T, files []*smartstore.File, c smartstore.Config) string {
		s, err := smartstore.Build(cloneFiles(files), c)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(s, server.Options{}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	topologies := []struct {
		name string
		up   func(t *testing.T) string
	}{
		{"shards=1", func(t *testing.T) string { return serve(t, set.Files, cfg(24, 1)) }},
		{"shards=4", func(t *testing.T) string { return serve(t, set.Files, cfg(24, 4)) }},
		{"smartgate", func(t *testing.T) string {
			var halves [2][]*smartstore.File
			for i, f := range set.Files {
				halves[i%2] = append(halves[i%2], f)
			}
			gw, err := gateway.New(gateway.Options{
				Backends:    []string{serve(t, halves[0], cfg(12, 1)), serve(t, halves[1], cfg(12, 2))},
				Timeout:     10 * time.Second,
				HealthEvery: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(gw)
			t.Cleanup(ts.Close)
			return ts.URL
		}},
	}
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			cl := client.New(top.up(t))
			acked := map[uint64]*smartstore.File{}
			for _, f := range cloneFiles(set.Files) {
				acked[f.ID] = f
			}
			touched, deleted := writeAndMirror(t, cl, set.Files, acked)
			checkReadYourWrites(t, cl, touched, deleted, acked, norm)
		})
	}
}

// writeAndMirror inserts fresh files, modifies some attributes of
// original and fresh files, and deletes some of each through cl,
// mirroring every acknowledged write into acked. It returns the files
// the writes touched, as last written, and the deleted ones.
func writeAndMirror(t *testing.T, cl *client.Client, corpus []*smartstore.File,
	acked map[uint64]*smartstore.File) (touched, deleted []*smartstore.File) {
	t.Helper()
	var fresh []*smartstore.File
	for i := 0; i < 20; i++ {
		f := *corpus[(i*29)%len(corpus)]
		f.ID, f.Path = uint64(900000+i), fmt.Sprintf("/ryw/new-%d.dat", i)
		f.Attrs[smartstore.AttrMTime] *= 1.0001 // no stored file shares its vector
		ins, err := cl.Insert([]*smartstore.File{&f})
		if err != nil || len(ins.IDs) != 1 || ins.IDs[0] != f.ID {
			t.Fatalf("insert %d: %+v, %v", f.ID, ins, err)
		}
		acked[f.ID] = &f
		fresh = append(fresh, &f)
	}
	var modified []*smartstore.File
	for i := 0; i < 12; i++ {
		f := corpus[(i*41+7)%len(corpus)]
		if i%3 == 0 {
			f = fresh[i]
		}
		cur := acked[f.ID]
		size, mtime := cur.Attrs[smartstore.AttrSize]*3+1, cur.Attrs[smartstore.AttrMTime]*0.5
		rec := server.FileRecord{ID: f.ID, Attrs: map[string]float64{
			smartstore.AttrSize.String():  size,
			smartstore.AttrMTime.String(): mtime,
		}}
		if m, err := cl.ModifyRecord(context.Background(), rec); err != nil || !m.Found {
			t.Fatalf("modify %d: %+v, %v", f.ID, m, err)
		}
		cur.Attrs[smartstore.AttrSize], cur.Attrs[smartstore.AttrMTime] = size, mtime
		modified = append(modified, cur)
	}
	for _, f := range []*smartstore.File{fresh[1], fresh[4], fresh[7], corpus[5], corpus[88], modified[1], modified[4]} {
		if m, err := cl.Delete(f.ID); err != nil || !m.Found {
			t.Fatalf("delete %d: %+v, %v", f.ID, m, err)
		}
		if _, ok := acked[f.ID]; ok {
			deleted = append(deleted, f)
			delete(acked, f.ID)
		}
	}
	for _, f := range append(fresh, modified...) {
		if _, ok := acked[f.ID]; ok && !slices.Contains(touched, f) {
			touched = append(touched, f)
		}
	}
	return touched, deleted
}

// checkReadYourWrites asks point, range and top-k queries at every
// touched and deleted file, on-line and off-line, and holds each answer
// to the acknowledged state.
func checkReadYourWrites(t *testing.T, cl *client.Client, touched, deleted []*smartstore.File,
	acked map[uint64]*smartstore.File, norm *smartstore.Normalizer) {
	t.Helper()
	live := make([]*smartstore.File, 0, len(acked))
	for _, f := range acked {
		live = append(live, f)
	}
	gone := map[uint64]bool{}
	for _, f := range deleted {
		gone[f.ID] = true
	}
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes, smartstore.AttrWriteBytes}
	ask := func(q smartstore.Query, mode smartstore.QueryMode) []uint64 {
		t.Helper()
		q.Options = smartstore.QueryOptions{Mode: mode, IncludeRecords: true}
		resp, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%v query: %v", q.Kind, err)
		}
		for _, rec := range resp.Records {
			f, ok := acked[rec.ID]
			if !ok {
				t.Fatalf("%v %v answer projects file %d, which is not live", mode, q.Kind, rec.ID)
			}
			if want := server.RecordFromFile(f); rec.Path != want.Path || !maps.Equal(rec.Attrs, want.Attrs) {
				t.Fatalf("%v %v answer projects %+v, last write was %+v", mode, q.Kind, rec, want)
			}
		}
		if len(resp.Records) != len(resp.IDs) {
			t.Fatalf("%v %v answer: %d ids, %d records", mode, q.Kind, len(resp.IDs), len(resp.Records))
		}
		for _, id := range resp.IDs {
			if gone[id] {
				t.Fatalf("%v %v answer names deleted file %d", mode, q.Kind, id)
			}
		}
		return resp.IDs
	}
	sorted := func(ids []uint64) []uint64 {
		out := slices.Clone(ids)
		slices.Sort(out)
		return out
	}
	for _, f := range append(slices.Clone(touched), deleted...) {
		got := ask(smartstore.NewPointQuery(f.Path), smartstore.ModeDefault)
		if want := query.PointTruth(live, query.Point{Filename: f.Path}); !slices.Equal(sorted(got), sorted(want)) {
			t.Fatalf("point %s = %v, acknowledged state has %v", f.Path, got, want)
		}
		lo, hi, at := make([]float64, len(attrs)), make([]float64, len(attrs)), make([]float64, len(attrs))
		for i, a := range attrs {
			v := f.Attrs[a]
			lo[i], hi[i], at[i] = v*0.8, v*1.25+1, v
		}
		rq, kq := smartstore.NewRangeQuery(attrs, lo, hi), smartstore.NewTopKQuery(attrs, at, 5)
		rangeTruth := query.RangeTruth(live, query.NewRange(attrs, lo, hi))
		topkTruth := query.TopKTruth(live, norm, query.NewTopK(attrs, at, 5))
		if got := ask(rq, smartstore.ModeOnline); !slices.Equal(sorted(got), sorted(rangeTruth)) {
			t.Fatalf("on-line range at %d = %v, acknowledged state has %v", f.ID, sorted(got), sorted(rangeTruth))
		}
		if got := ask(kq, smartstore.ModeOnline); !slices.Equal(got, topkTruth) {
			t.Fatalf("on-line top-5 at %d = %v, acknowledged state has %v", f.ID, got, topkTruth)
		}
		for _, id := range ask(rq, smartstore.ModeOffline) {
			if !slices.Contains(rangeTruth, id) {
				t.Fatalf("off-line range at %d names %d outside the acknowledged answer %v", f.ID, id, rangeTruth)
			}
		}
		ask(kq, smartstore.ModeOffline)
	}
}
