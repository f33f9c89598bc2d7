package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/trace"
)

// startServed builds an in-process store over the set and serves it on
// a loopback listener, returning a connected client.
func startServed(t *testing.T, set *trace.Set, cfg smartstore.Config) *client.Client {
	t.Helper()
	return client.New(serve(t, set, cfg))
}

// serve builds an in-process store over the set, serves it on a
// loopback listener and returns the listener's address.
func serve(t *testing.T, set *trace.Set, cfg smartstore.Config) string {
	t.Helper()
	store, err := smartstore.Build(set.Files, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := &http.Server{Handler: server.New(store, server.Options{DisableMetrics: true})}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	scns, err := ByNames(name)
	if err != nil {
		t.Fatalf("ByNames(%q): %v", name, err)
	}
	return scns[0]
}

// With an explicit offline budget at least the group and shard counts,
// pruning is exhaustive, so every answer must equal the single union
// store's truth exactly: the end-to-end validation of the mirror and
// the replay protocol.
func TestRunExactWithExhaustiveBudget(t *testing.T) {
	scn := scenario(t, "zipf-hot")
	set, err := smartstore.GenerateTrace(scn.Trace, 400, 7)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	cl := startServed(t, set, smartstore.Config{
		Units: 24, Shards: 4, Seed: 7, OfflineGroupBudget: 1000,
	})

	res, err := Run(context.Background(), scn, Options{
		Client: cl, Set: set, Ops: 240, Clients: 4, Seed: 11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("run reported %d op errors: %+v", res.Errors, res.PerOp)
	}
	if res.RangeRecall == nil || res.RangeRecall.Queries == 0 {
		t.Fatal("no range queries scored")
	}
	if res.RangeRecall.Mean != 1 || res.RangeRecall.Min != 1 {
		t.Fatalf("exhaustive range recall = %+v, want exactly 1", res.RangeRecall)
	}
	if res.TopKRecall == nil || res.TopKRecall.Mean != 1 || res.TopKRecall.Min != 1 {
		t.Fatalf("exhaustive topk recall = %+v, want exactly 1", res.TopKRecall)
	}
	if res.RangeSpurious != 0 {
		t.Fatalf("spurious range ids = %d, want 0", res.RangeSpurious)
	}
	if res.PointQueries == 0 || res.PointHitRate != 1 {
		t.Fatalf("point hit rate = %v over %d queries, want 1", res.PointHitRate, res.PointQueries)
	}
	if res.Mismatches != 0 {
		t.Fatalf("mutation verdict mismatches = %d", res.Mismatches)
	}
	if res.Throughput <= 0 || res.Ops != 240 || res.Files != 400 {
		t.Fatalf("implausible run shape: %+v", res)
	}
	for _, k := range []string{"point", "range", "topk"} {
		st, ok := res.PerOp[k]
		if !ok || st.Count == 0 {
			t.Fatalf("missing per-op latency for %s: %+v", k, res.PerOp)
		}
		if st.P50Ms > st.P99Ms {
			t.Fatalf("%s percentiles not monotone: %+v", k, st)
		}
	}
	if viol := res.CheckFloors(0.99, 0.99); len(viol) != 0 {
		t.Fatalf("floor gate flagged an exact run: %v", viol)
	}
}

// A mutating scenario must stay exact under the round protocol:
// inserts land under server-allocated ids, deletes and modifies agree
// with the mirror's verdicts, and recall never degrades.
func TestRunMutatingScenarioStaysExact(t *testing.T) {
	scn := scenario(t, "insert-heavy")
	set, err := smartstore.GenerateTrace(scn.Trace, 300, 21)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	cl := startServed(t, set, smartstore.Config{
		Units: 24, Shards: 3, Seed: 21, OfflineGroupBudget: 1000,
	})

	res, err := Run(context.Background(), scn, Options{
		Client: cl, Set: set, Ops: 300, Clients: 4, Seed: 5, RoundSize: 60,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Mutations == 0 {
		t.Fatalf("insert-heavy scenario mutated nothing: %+v", res)
	}
	if res.Mismatches != 0 {
		t.Fatalf("server and truth disagreed on %d mutation verdicts", res.Mismatches)
	}
	if res.Errors != 0 {
		t.Fatalf("run reported %d op errors: %+v", res.Errors, res.PerOp)
	}
	if res.RangeRecall != nil && res.RangeRecall.Min != 1 {
		t.Fatalf("range recall degraded under mutation: %+v", res.RangeRecall)
	}
	if res.TopKRecall == nil || res.TopKRecall.Min != 1 {
		t.Fatalf("topk recall degraded under mutation: %+v", res.TopKRecall)
	}
	if res.Files == 300 {
		t.Fatal("final truth population unchanged — inserts were not mirrored")
	}
	// The live endpoint and the mirror must agree on the final count.
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Store.Files != res.Files {
		t.Fatalf("endpoint holds %d files, truth %d", st.Store.Files, res.Files)
	}
}

// Under the default adaptive offline routing, recall is a measurement
// (possibly < 1), never an error — the harness reports it either way.
func TestRunAdaptiveOfflineReportsRecall(t *testing.T) {
	scn := scenario(t, "uniform-scan")
	set, err := smartstore.GenerateTrace(scn.Trace, 400, 3)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	cl := startServed(t, set, smartstore.Config{Units: 24, Shards: 4, Seed: 3})

	res, err := Run(context.Background(), scn, Options{
		Client: cl, Set: set, Ops: 150, Clients: 4, Seed: 9,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.RangeRecall == nil || res.RangeRecall.Queries == 0 {
		t.Fatal("scan-heavy scenario scored no range queries")
	}
	if res.RangeRecall.Mean <= 0 || res.RangeRecall.Mean > 1 {
		t.Fatalf("range recall mean out of (0,1]: %+v", res.RangeRecall)
	}
}

// The multi-tenant scenario interleaves three tenants deterministically
// and still replays cleanly end to end.
func TestRunMultiTenant(t *testing.T) {
	scn := scenario(t, "multi-tenant")
	set, err := smartstore.GenerateTrace(scn.Trace, 300, 13)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	opsA := scn.Ops(set, 120, 42)
	opsB := scn.Ops(set, 120, 42)
	if len(opsA) != 120 || len(opsA) != len(opsB) {
		t.Fatalf("tenant split lost ops: %d vs %d", len(opsA), len(opsB))
	}
	for i := range opsA {
		if opsA[i].Fingerprint() != opsB[i].Fingerprint() {
			t.Fatalf("multi-tenant interleave not deterministic at op %d", i)
		}
	}

	cl := startServed(t, set, smartstore.Config{
		Units: 24, Shards: 2, Seed: 13, OfflineGroupBudget: 1000,
	})
	res, err := Run(context.Background(), scn, Options{
		Client: cl, Set: set, Ops: 120, Clients: 3, Seed: 42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Tenants != 3 {
		t.Fatalf("tenants = %d, want 3", res.Tenants)
	}
	if res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("multi-tenant replay broke: errors=%d mismatches=%d", res.Errors, res.Mismatches)
	}
}

// Run refuses to score against an endpoint whose population does not
// match the truth corpus.
func TestRunBootstrapMismatch(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 200, 1)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	cl := startServed(t, set, smartstore.Config{Units: 12, Seed: 1})

	other, err := smartstore.GenerateTrace("MSN", 150, 1)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if _, err := Run(context.Background(), scenario(t, "zipf-hot"), Options{Client: cl, Set: other}); err == nil {
		t.Fatal("Run accepted a mismatched bootstrap")
	}
}

func TestCheckFloors(t *testing.T) {
	r := &ScenarioResult{
		Scenario:    "x",
		RangeRecall: &RecallStat{Queries: 10, Mean: 0.90, Min: 0.5},
		TopKRecall:  &RecallStat{Queries: 10, Mean: 0.99, Min: 0.9},
	}
	if v := r.CheckFloors(0.85, 0.95); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	if v := r.CheckFloors(0.95, 0.95); len(v) != 1 {
		t.Fatalf("want 1 range violation, got %v", v)
	}
	r.Mismatches = 2
	if v := r.CheckFloors(0, 0); len(v) != 1 {
		t.Fatalf("mismatches must always violate: %v", v)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if p := Percentile(s, 50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := Percentile(s, 99); p != 5 {
		t.Fatalf("p99 = %v, want 5", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
	if s[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

// A remote cell reports what the daemon's /v1/stats tells — its shard
// count — and leaves out what it cannot know: the off-line budget. It
// carries no "mode" key.
func TestRemoteCellReportsDaemonShards(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 300, 9)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	addr := serve(t, set, smartstore.Config{Units: 12, Shards: 2, Seed: 9})
	o := options{remote: addr, trace: "MSN", files: 300, seed: 9, ops: 60, clients: 2}
	rep := &report{}
	if err := runRemote(context.Background(), []Scenario{scenario(t, "zipf-hot")}, o, rep); err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%d cells, want 1", len(rep.Results))
	}
	buf, err := json.Marshal(rep.Results[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.Unmarshal(buf, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["endpoint"] != addr || cfg["shards"] != 2.0 {
		t.Errorf("remote cell config %s, want endpoint %s and shards 2", buf, addr)
	}
	for _, key := range []string{"mode", "offline_budget", "fsync"} {
		if _, ok := cfg[key]; ok {
			t.Errorf("remote cell config %s carries %q", buf, key)
		}
	}
}
