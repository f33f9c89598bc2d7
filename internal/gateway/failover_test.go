package gateway

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
)

// TestGatewayFailsOverToFollower is the failover contract: a member
// with a caught-up follower loses availability for at most one probe
// cycle — the gateway promotes the follower, repoints the member, and
// fan-outs answer complete (no partial flag) with the identical id set.
func TestGatewayFailsOverToFollower(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 600, 17)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)

	// Round-robin partition across two members. Member 1 — the one we
	// will kill — is durable, so it can ship its WAL to a follower.
	var part [2][]*smartstore.File
	for i, f := range set.Files {
		part[i%2] = append(part[i%2], f)
	}
	st0, err := smartstore.Build(part[0], smartstore.Config{
		Units: 8, Shards: 2, Seed: 17, Mode: smartstore.ModeOnline, Normalizer: norm,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(server.New(st0, server.Options{}))
	t.Cleanup(ts0.Close)

	st1, err := smartstore.Build(part[1], smartstore.Config{
		Units: 8, Shards: 2, Seed: 17, Mode: smartstore.ModeOnline, Normalizer: norm,
		DataDir: t.TempDir(), Durability: smartstore.DurabilityNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(server.New(st1, server.Options{}))
	t.Cleanup(ts1.Close)

	// Member 1's follower: bootstrapped from its snapshot, tailing its
	// WAL, served read-only with the promotion endpoint wired.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ropts := repl.Options{PollEvery: 5 * time.Millisecond, Logf: func(string, ...any) {}}
	fst, _, err := repl.Bootstrap(ctx, ts1.URL, "", smartstore.Config{
		Seed: 17, Mode: smartstore.ModeOnline, Normalizer: norm,
	}, ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	follower := repl.New(fst, ts1.URL, ropts)
	go follower.Run(ctx)
	fsrv := httptest.NewServer(server.New(fst, server.Options{ReadOnly: true, Repl: follower}))
	t.Cleanup(fsrv.Close)

	gw, err := New(Options{
		Backends:     []string{ts0.URL, ts1.URL},
		Followers:    []string{"", fsrv.URL},
		Timeout:      10 * time.Second,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		HealthEvery:  time.Hour, // probes are driven by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(gw)
	t.Cleanup(gateSrv.Close)
	gate := client.New(gateSrv.URL)

	// Ground truth while everything is up, and the follower caught up.
	full, err := gate.Query(ctx, smartstore.NewRangeQuery(queryAttrs(),
		[]float64{0, 0, 0}, []float64{9e15, 9e15, 9e15}))
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || len(full.IDs) == 0 {
		t.Fatalf("pre-kill answer partial=%v with %d ids", full.Partial, len(full.IDs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !follower.Status().CaughtUp {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill member 1 the hard way and run a probe round: the gateway
	// must notice, verify the follower's watermark, promote it and
	// repoint the member — all inside this one probe.
	ts1.CloseClientConnections()
	ts1.Close()
	gw.probeAll()

	b1 := gw.backends[1]
	if !b1.failedOver.Load() {
		t.Fatal("member 1 did not fail over")
	}
	if !b1.up.Load() {
		t.Fatal("failed-over member reads down")
	}
	if got := b1.activeAddr(); got != fsrv.URL {
		t.Fatalf("member 1 active address = %s, want follower %s", got, fsrv.URL)
	}
	if !follower.Status().Promoted {
		t.Fatal("follower not promoted")
	}

	// The post-kill answer is complete — same id set, no partial flag.
	got, err := gate.Query(ctx, smartstore.NewRangeQuery(queryAttrs(),
		[]float64{0, 0, 0}, []float64{9e15, 9e15, 9e15}))
	if err != nil {
		t.Fatalf("post-failover query: %v", err)
	}
	if got.Partial {
		t.Fatal("post-failover answer flagged partial — failover did not take")
	}
	assertSameSet(t, "post-failover range", got.IDs, full.IDs)

	// The promoted follower takes writes through the gateway: a delete
	// of a member-1 id must land (not 503-indeterminate).
	victim := part[1][0].ID
	if _, err := gate.Delete(victim); err != nil {
		t.Fatalf("post-failover delete via gateway: %v", err)
	}
	if _, ok := fst.FileByID(victim); ok {
		t.Fatal("delete did not reach the promoted follower")
	}

	// Failover state is visible: stats rows and the metric family.
	st, err := gate.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway == nil || len(st.Gateway.Backends) != 2 {
		t.Fatalf("gateway stats rows: %+v", st.Gateway)
	}
	row := st.Gateway.Backends[1]
	if !row.FailedOver || row.Active != fsrv.URL {
		t.Fatalf("member 1 stats row = %+v, want failed_over via %s", row, fsrv.URL)
	}
	text, err := gate.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fo := obs.FindFamily(fams, "smartgate_failovers_total")
	if fo == nil || len(fo.Samples) == 0 || fo.Samples[0].Value < 1 {
		t.Fatalf("smartgate_failovers_total missing or zero: %+v", fo)
	}
}

// TestGatewayStaysDegradedOnBehindFollower: a follower that is not
// caught up must NOT be promoted — failing over to it would silently
// drop acknowledged writes. The member stays down and answers degrade
// to partial instead.
func TestGatewayStaysDegradedOnBehindFollower(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	norm := smartstore.FitNormalizer(set.Files)
	st1, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 8, Shards: 2, Seed: 17, Mode: smartstore.ModeOnline, Normalizer: norm,
		DataDir: t.TempDir(), Durability: smartstore.DurabilityNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(server.New(st1, server.Options{}))
	t.Cleanup(ts1.Close)

	// The "follower" here never runs its pull loops, so its status
	// reports caught_up false — a permanently-behind replica.
	ctx := context.Background()
	ropts := repl.Options{Logf: func(string, ...any) {}}
	fst, _, err := repl.Bootstrap(ctx, ts1.URL, "", smartstore.Config{
		Seed: 17, Mode: smartstore.ModeOnline, Normalizer: norm,
	}, ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	follower := repl.New(fst, ts1.URL, ropts)
	fsrv := httptest.NewServer(server.New(fst, server.Options{ReadOnly: true, Repl: follower}))
	t.Cleanup(fsrv.Close)

	gw, err := New(Options{
		Backends:    []string{ts1.URL},
		Followers:   []string{fsrv.URL},
		Timeout:     5 * time.Second,
		HealthEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts1.CloseClientConnections()
	ts1.Close()
	gw.probeAll()

	b := gw.backends[0]
	if b.failedOver.Load() {
		t.Fatal("gateway promoted a behind follower")
	}
	if b.up.Load() {
		t.Fatal("member with a behind follower reads up")
	}
	if follower.Status().Promoted {
		t.Fatal("behind follower was promoted")
	}
}
