package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// queryAttrs is the placement predicate every store in these tests
// groups on — the trace's default (mtime, read and write volume).
func queryAttrs() []smartstore.Attr {
	return []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes, smartstore.AttrWriteBytes}
}

// federation is the equivalence fixture: one single store holding the
// whole corpus (the ground truth) and the same corpus round-robin
// partitioned across nBackends stores behind a gateway — all built
// against one shared normalizer, all on-line, both ends served over
// real HTTP.
type federation struct {
	files    []*smartstore.File
	perNode  [][]*smartstore.File
	single   *client.Client
	gate     *client.Client
	gateURL  string
	gw       *Gateway
	backends []*httptest.Server
}

func buildFederation(t testing.TB, n, nBackends int) *federation {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", n, 17)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)
	cfg := func(units, shards int) smartstore.Config {
		return smartstore.Config{
			Units:      units,
			Shards:     shards,
			Seed:       17,
			Mode:       smartstore.OnLine,
			Normalizer: norm,
		}
	}

	singleStore, err := smartstore.Build(set.Files, cfg(24, 3))
	if err != nil {
		t.Fatal(err)
	}
	singleSrv := httptest.NewServer(server.New(singleStore, server.Options{}))
	t.Cleanup(singleSrv.Close)

	fed := &federation{
		files:   set.Files,
		perNode: make([][]*smartstore.File, nBackends),
		single:  client.New(singleSrv.URL),
	}
	for i, f := range set.Files {
		fed.perNode[i%nBackends] = append(fed.perNode[i%nBackends], f)
	}
	urls := make([]string, nBackends)
	for i, part := range fed.perNode {
		st, err := smartstore.Build(part, cfg(8, 2))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(st, server.Options{}))
		t.Cleanup(ts.Close)
		fed.backends = append(fed.backends, ts)
		urls[i] = ts.URL
	}

	gw, err := New(Options{
		Backends:     urls,
		Timeout:      10 * time.Second,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		HealthEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.gw = gw
	gateSrv := httptest.NewServer(gw)
	t.Cleanup(gateSrv.Close)
	fed.gate = client.New(gateSrv.URL)
	fed.gateURL = gateSrv.URL
	return fed
}

func toSet(ids []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// assertSameSet compares unordered answers (point, range).
func assertSameSet(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, single store says %d", label, len(got), len(want))
	}
	w := toSet(want)
	for _, id := range got {
		if !w[id] {
			t.Fatalf("%s: id %d not in the single store's answer", label, id)
		}
	}
}

// assertSameOrdered compares ordered answers (top-k, ties included —
// the shared merge rules make the order bit-identical, not just the
// set).
func assertSameOrdered(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, single store says %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d is %d, single store says %d\n got %v\nwant %v",
				label, i, got[i], want[i], got, want)
		}
	}
}

// rangeWindows is a spread of selectivities over the query attrs.
func rangeWindows() [][2][]float64 {
	return [][2][]float64{
		{{36000, 3e7, 0}, {59000, 5e7, 9e15}},
		{{0, 0, 0}, {9e15, 9e15, 9e15}}, // everything
		{{50000, 0, 0}, {50001, 9e15, 9e15}},
		{{9e14, 9e14, 9e14}, {9.1e14, 9.1e14, 9.1e14}}, // nothing
	}
}

// topkPoints is a spread of query points (raw attribute units).
func topkPoints() [][]float64 {
	return [][]float64{
		{40000, 3e7, 6e7},
		{0, 0, 0},
		{86400, 1e9, 1e9},
		{55000, 4.5e7, 2e7},
	}
}

// assertEquivalent drives the same queries through the gateway and the
// single store and demands identical answers.
func (fed *federation) assertEquivalent(t *testing.T, ctx context.Context, phase string) {
	t.Helper()
	// Point lookups, including paths that do not exist.
	for i := 0; i < 10; i++ {
		path := fed.files[(i*271)%len(fed.files)].Path
		g, err := fed.gate.Query(ctx, smartstore.NewPointQuery(path))
		if err != nil {
			t.Fatalf("%s point: %v", phase, err)
		}
		s, err := fed.single.Query(ctx, smartstore.NewPointQuery(path))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSet(t, fmt.Sprintf("%s point %q", phase, path), g.IDs, s.IDs)
		if g.Partial {
			t.Fatalf("%s point: fully healthy federation answered partial", phase)
		}
	}
	// Range windows.
	for wi, w := range rangeWindows() {
		q := smartstore.NewRangeQuery(queryAttrs(), w[0], w[1])
		g, err := fed.gate.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s range[%d]: %v", phase, wi, err)
		}
		s, err := fed.single.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSet(t, fmt.Sprintf("%s range[%d]", phase, wi), g.IDs, s.IDs)
	}
	// Top-k: ordered, several k, distances on.
	for pi, pt := range topkPoints() {
		for _, k := range []int{1, 10, 57} {
			q := smartstore.NewTopKQuery(queryAttrs(), pt, k)
			q.Options.IncludeDists = true
			g, err := fed.gate.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s topk[%d] k=%d: %v", phase, pi, k, err)
			}
			s, err := fed.single.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s topk[%d] k=%d", phase, pi, k)
			assertSameOrdered(t, label, g.IDs, s.IDs)
			if len(g.Dists) != len(g.IDs) {
				t.Fatalf("%s: %d dists for %d ids", label, len(g.Dists), len(g.IDs))
			}
			for i := 1; i < len(g.Dists); i++ {
				if g.Dists[i] < g.Dists[i-1] {
					t.Fatalf("%s: dists not ascending: %v", label, g.Dists)
				}
			}
		}
	}
}

func TestGatewayMatchesSingleStore(t *testing.T) {
	fed := buildFederation(t, 1800, 3)
	ctx := context.Background()
	fed.assertEquivalent(t, ctx, "fresh")

	// Limit: the truncated subset is answer-dependent for unions, so
	// the contract is size + membership in the full answer. The
	// match-everything window guarantees more than Limit candidates.
	w := rangeWindows()[1]
	full, err := fed.single.Query(ctx, smartstore.NewRangeQuery(queryAttrs(), w[0], w[1]))
	if err != nil {
		t.Fatal(err)
	}
	limited := smartstore.NewRangeQuery(queryAttrs(), w[0], w[1])
	limited.Options.Limit = 5
	g, err := fed.gate.Query(ctx, limited)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IDs) != 5 || !g.Truncated {
		t.Fatalf("limited range answered %d ids (truncated=%v)", len(g.IDs), g.Truncated)
	}
	fullSet := toSet(full.IDs)
	for _, id := range g.IDs {
		if !fullSet[id] {
			t.Fatalf("limited range id %d outside the full answer", id)
		}
	}
	// Top-k with a limit keeps the ordered prefix exactly.
	lq := smartstore.NewTopKQuery(queryAttrs(), topkPoints()[0], 20)
	lq.Options.Limit = 7
	g, err = fed.gate.Query(ctx, lq)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fed.single.Query(ctx, smartstore.NewTopKQuery(queryAttrs(), topkPoints()[0], 20))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrdered(t, "limited topk", g.IDs, s.IDs[:7])

	// Record projection travels intact through the fan-out merge.
	rq := smartstore.NewTopKQuery(queryAttrs(), topkPoints()[0], 12)
	rq.Options.IncludeRecords = true
	g, err = fed.gate.Query(ctx, rq)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Records) != len(g.IDs) {
		t.Fatalf("projected %d records for %d ids", len(g.Records), len(g.IDs))
	}
	for i, rec := range g.Records {
		if rec.ID != g.IDs[i] {
			t.Fatalf("record %d is id %d, answer order says %d", i, rec.ID, g.IDs[i])
		}
	}

	// Batch: every member answers like its standalone twin.
	batch := []smartstore.Query{
		smartstore.NewPointQuery(fed.files[3].Path),
		smartstore.NewRangeQuery(queryAttrs(), w[0], w[1]),
		smartstore.NewTopKQuery(queryAttrs(), topkPoints()[1], 15),
	}
	gb, err := fed.gate.QueryBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fed.single.QueryBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(gb.Results) != 3 || len(sb.Results) != 3 {
		t.Fatalf("batch answered %d/%d results", len(gb.Results), len(sb.Results))
	}
	assertSameSet(t, "batch point", gb.Results[0].IDs, sb.Results[0].IDs)
	assertSameSet(t, "batch range", gb.Results[1].IDs, sb.Results[1].IDs)
	assertSameOrdered(t, "batch topk", gb.Results[2].IDs, sb.Results[2].IDs)
}

func TestGatewayMutationsKeepEquivalence(t *testing.T) {
	fed := buildFederation(t, 1200, 3)
	ctx := context.Background()

	// Inserts with explicit ids, mirrored to both ends. The gateway
	// places them by centroid; where they land must not matter.
	var fresh []*smartstore.File
	for i := 0; i < 30; i++ {
		src := fed.files[(i*37)%len(fed.files)]
		f := &smartstore.File{ID: uint64(9_000_000 + i), Path: fmt.Sprintf("/fed/new-%d.dat", i), Attrs: src.Attrs}
		fresh = append(fresh, f)
	}
	if _, err := fed.gate.Insert(fresh); err != nil {
		t.Fatalf("gateway insert: %v", err)
	}
	if _, err := fed.single.Insert(fresh); err != nil {
		t.Fatalf("single insert: %v", err)
	}
	if _, err := fed.gate.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.single.Flush(); err != nil {
		t.Fatal(err)
	}
	fed.files = append(fed.files, fresh...)
	fed.assertEquivalent(t, ctx, "post-insert")

	// The learned id index routes a delete straight to the owner; a
	// never-learned id (original corpus) routes by fan-out. Both must
	// agree with the single store.
	for _, id := range []uint64{9_000_003, 9_000_017, fed.files[100].ID, fed.files[700].ID} {
		gm, err := fed.gate.Delete(id)
		if err != nil {
			t.Fatalf("gateway delete %d: %v", id, err)
		}
		sm, err := fed.single.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if !gm.Found || !sm.Found {
			t.Fatalf("delete %d: found gateway=%v single=%v", id, gm.Found, sm.Found)
		}
	}
	// Deleting an id that exists nowhere answers found=false (healthy
	// membership, so the verdict is authoritative).
	gm, err := fed.gate.Delete(77_000_000)
	if err != nil {
		t.Fatalf("delete of unknown id: %v", err)
	}
	if gm.Found {
		t.Fatal("unknown id reported found")
	}

	// Partial-attribute modify keeps merge semantics through the
	// forwarding: only the named attribute moves.
	target := fed.files[500].ID
	rec := server.FileRecord{ID: target, Attrs: map[string]float64{"mtime": 123456}}
	if _, err := fed.gate.ModifyRecord(ctx, rec); err != nil {
		t.Fatalf("gateway modify: %v", err)
	}
	if _, err := fed.single.ModifyRecord(ctx, rec); err != nil {
		t.Fatal(err)
	}
	fed.assertEquivalent(t, ctx, "post-mutation")
}

func TestGatewayTraceCarriesBackends(t *testing.T) {
	fed := buildFederation(t, 600, 2)
	tcl := fed.gate.WithTrace()
	resp, err := tcl.Query(context.Background(), smartstore.NewTopKQuery(queryAttrs(), topkPoints()[0], 5))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("traced query returned no trace")
	}
	if len(resp.Trace.Backends) != 2 {
		t.Fatalf("trace lists %d backends, want 2", len(resp.Trace.Backends))
	}
	for _, bt := range resp.Trace.Backends {
		if bt.Down {
			t.Fatalf("backend %s flagged down in a healthy federation", bt.Backend)
		}
		if bt.Trace == nil {
			t.Fatalf("backend %s trace not propagated", bt.Backend)
		}
	}
	var sawMerge bool
	for _, p := range resp.Trace.Phases {
		if p.Name == "merge" {
			sawMerge = true
		}
	}
	if !sawMerge {
		t.Fatalf("gateway trace lacks the derived merge phase: %+v", resp.Trace.Phases)
	}
}

func TestGatewayStatsAggregate(t *testing.T) {
	fed := buildFederation(t, 900, 3)
	st, err := fed.gate.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway == nil {
		t.Fatal("gateway stats lack the gateway section")
	}
	if st.Gateway.Healthy != 3 || len(st.Gateway.Backends) != 3 {
		t.Fatalf("membership reports %d healthy of %d", st.Gateway.Healthy, len(st.Gateway.Backends))
	}
	if st.Store.Files != len(fed.files) {
		t.Fatalf("aggregate files %d, corpus holds %d", st.Store.Files, len(fed.files))
	}
	sum := 0
	for _, row := range st.Gateway.Backends {
		if !row.Healthy {
			t.Fatalf("backend %s unhealthy in a fresh federation", row.Backend)
		}
		sum += row.Files
	}
	if sum != len(fed.files) {
		t.Fatalf("per-backend files sum to %d, corpus holds %d", sum, len(fed.files))
	}
}

// TestGatewayStatsComposeLikeEngine: /v1/stats composes
// index_bytes_per_node across members as the engine composes it across
// shards, weighted by unit count — two one-shard members of unequal size
// report through a gateway what one two-shard store holding the same two
// partitions reports. Every store is loaded from a snapshot so the
// members and the joined store deploy identical trees.
func TestGatewayStatsComposeLikeEngine(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 600, 17)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)
	load := func(snap *snapshot.Snapshot) *smartstore.Store {
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		st, err := smartstore.Load(&buf, smartstore.Config{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var snaps []*snapshot.Snapshot
	var urls []string
	var perNode []int
	for _, m := range []struct{ lo, hi, units int }{{0, 400, 12}, {400, 600, 4}} {
		built, err := smartstore.Build(set.Files[m.lo:m.hi], smartstore.Config{Units: m.units, Seed: 17, Normalizer: norm})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := built.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		member := load(snap)
		perNode = append(perNode, member.Stats().IndexBytesPerNode)
		ts := httptest.NewServer(server.New(member, server.Options{}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	if perNode[0] == perNode[1] {
		t.Fatalf("members report equal index bytes per node (%d): the fixture cannot tell a mean from a max", perNode[0])
	}
	joined := *snaps[0]
	joined.Shards = []snapshot.ShardRecord{snaps[0].Shards[0], snaps[1].Shards[0]}
	want := load(&joined).Stats().IndexBytesPerNode

	gw, err := New(Options{Backends: urls, Timeout: 10 * time.Second, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(gw)
	t.Cleanup(gateSrv.Close)
	st, err := client.New(gateSrv.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Store.IndexBytesPerNode; got != want {
		t.Fatalf("gateway index_bytes_per_node %d, two-shard store %d (members %v)", got, want, perNode)
	}
}

// keyPaths lists every object key of a JSON document as a sorted set of
// dotted paths, array elements as "[]".
func keyPaths(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				seen[prefix+k] = true
				walk(prefix+k+".", child)
			}
		case []any:
			for _, child := range v {
				walk(strings.TrimSuffix(prefix, ".")+"[].", child)
			}
		}
	}
	walk("", doc)
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestStatsKeySetsPinned: /v1/stats is read by dashboards and by
// gateways at bootstrap, and its store and wal sections are the
// engine's and the log's own structs, so a renamed field there would
// rename a wire key. The key sets below were recorded from the PR 20
// binaries (in-memory store, durable store, gateway over both) before
// those structs became one type. What build carries depends on how the
// binary was stamped, so its fields are left to TestStatsBuildInfo.
func TestStatsKeySetsPinned(t *testing.T) {
	common := "build server server.uptime_sec server.requests server.rejected server.workers server.max_queue " +
		"server.cache server.cache.entries server.cache.max_entries server.cache.hits server.cache.misses " +
		"server.cache.evictions server.cache.invalidations " +
		"store store.units store.index_units store.tree_height store.files store.trees " +
		"store.index_bytes_total store.index_bytes_per_node store.epoch store.shards "
	single := common + "store.per_shard store.per_shard[].shard store.per_shard[].units " +
		"store.per_shard[].index_units store.per_shard[].tree_height store.per_shard[].files " +
		"store.per_shard[].trees store.per_shard[].epoch " +
		"placement placement.attrs placement.centroid placement.lo placement.hi placement.max_file_id "
	durable := single + "wal wal.segments wal.bytes wal.durable_bytes wal.group_commits " +
		"wal.grouped_records wal.rotations wal.auto_checkpoints wal.auto_checkpoint_failures"
	gate := common + "gateway gateway.healthy gateway.backends gateway.backends[].backend " +
		"gateway.backends[].healthy gateway.backends[].files gateway.backends[].epoch gateway.backends[].active"

	fed := buildFederation(t, 300, 2)
	store, err := smartstore.Build(fed.perNode[0], smartstore.Config{
		Units: 8, Seed: 17, DataDir: t.TempDir(), Durability: smartstore.DurabilityAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	durableSrv := httptest.NewServer(server.New(store, server.Options{}))
	t.Cleanup(durableSrv.Close)

	for _, tc := range []struct{ name, url, want string }{
		{"in-memory store", fed.backends[0].URL, single},
		{"durable store", durableSrv.URL, durable},
		{"gateway", fed.gateURL, gate},
	} {
		resp, err := http.Get(tc.url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := slices.DeleteFunc(keyPaths(t, raw), func(k string) bool { return strings.HasPrefix(k, "build.") })
		want := strings.Fields(tc.want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: /v1/stats keys moved:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

// TestTracedBatchMembersRunUntraced: a batch answer carries no trace,
// so a traced batch must not make every member collect one — members
// see no trace header — while a traced single query still nests one
// row, with the member's own trace, per member.
func TestTracedBatchMembersRunUntraced(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)
	var tracedAtMembers atomic.Int64
	urls := make([]string, 2)
	for i := range urls {
		var part []*smartstore.File
		for j := i; j < len(set.Files); j += len(urls) {
			part = append(part, set.Files[j])
		}
		st, err := smartstore.Build(part, smartstore.Config{Units: 6, Seed: 17, Normalizer: norm})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(st, server.Options{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" && r.Header.Get(server.TraceHeader) != "" {
				tracedAtMembers.Add(1)
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	gw, err := New(Options{Backends: urls, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gate := httptest.NewServer(gw)
	t.Cleanup(gate.Close)
	tcl := client.New(gate.URL).WithTrace()

	ctx := context.Background()
	w := rangeWindows()[0]
	qs := []smartstore.Query{
		smartstore.NewTopKQuery(queryAttrs(), topkPoints()[0], 5),
		smartstore.NewRangeQuery(queryAttrs(), w[0], w[1]),
		smartstore.NewPointQuery(set.Files[3].Path),
	}
	batch, err := tcl.QueryBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(qs) {
		t.Fatalf("batch answered %d of %d queries", len(batch.Results), len(qs))
	}
	for i, r := range batch.Results {
		if r.Error != "" || r.Trace != nil {
			t.Fatalf("batch result %d: error %q, trace %v", i, r.Error, r.Trace)
		}
	}
	if n := tracedAtMembers.Load(); n != 0 {
		t.Fatalf("traced batch sent the trace header to members %d times, want 0", n)
	}

	resp, err := tcl.Query(ctx, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || len(resp.Trace.Backends) != len(urls) {
		t.Fatalf("traced single query: trace %+v, want one row per member", resp.Trace)
	}
	for _, bt := range resp.Trace.Backends {
		if bt.Trace == nil {
			t.Fatalf("member %s trace not nested", bt.Backend)
		}
	}
	if n := tracedAtMembers.Load(); n != int64(len(urls)) {
		t.Fatalf("traced single query sent the trace header to members %d times, want %d", n, len(urls))
	}
}
