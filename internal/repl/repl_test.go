package repl_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// discard silences follower logging in tests; failures assert on state,
// not log lines.
func discard(string, ...any) {}

// testOpts returns fast-cadence follower options for tests.
func testOpts() repl.Options {
	return repl.Options{PollEvery: 5 * time.Millisecond, Timeout: 5 * time.Second, Logf: discard}
}

// startLeader deploys a durable leader store over a synthesized corpus
// and serves it over HTTP.
func startLeader(t *testing.T, shards int) (*smartstore.Store, *smartstore.TraceSet, *httptest.Server) {
	t.Helper()
	set, err := smartstore.GenerateTrace("MSN", 400, 17)
	if err != nil {
		t.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units:      12,
		Shards:     shards,
		Seed:       17,
		DataDir:    t.TempDir(),
		Durability: smartstore.DurabilityNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{DisableMetrics: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return store, set, ts
}

// followerCfg is the follower's deployment config; structure comes from
// the leader's snapshot.
func followerCfg() smartstore.Config {
	return smartstore.Config{Seed: 17, Durability: smartstore.DurabilityNever}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rangeIDs runs a wide on-line range query (exact on propagated state).
func rangeIDs(t *testing.T, store *smartstore.Store) []uint64 {
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

// mutate runs a small mixed workload against the leader: multi-shard
// insert batches, modifies and deletes.
func mutate(t *testing.T, store *smartstore.Store, set *smartstore.TraceSet, round int) {
	t.Helper()
	base := store.MaxFileID()
	for i := 0; i < 20; i++ {
		switch i % 3 {
		case 0:
			batch := make([]*smartstore.File, 3)
			for j := range batch {
				src := set.Files[(round*131+i*17+j*271)%len(set.Files)]
				batch[j] = &smartstore.File{
					ID:    base + uint64(round*1000+i*10+j+1),
					Path:  fmt.Sprintf("/repl/r%d/i%d/f%d", round, i, j),
					Attrs: src.Attrs,
				}
			}
			if _, err := store.InsertBatch(batch); err != nil {
				t.Fatalf("insert batch: %v", err)
			}
		case 1:
			f := *set.Files[(round*53+i*29)%len(set.Files)]
			f.Attrs[smartstore.AttrSize] += float64(i)
			if _, _, err := store.Modify(&f); err != nil {
				t.Fatalf("modify: %v", err)
			}
		case 2:
			if _, _, err := store.Delete(base + uint64(round*1000+(i-2)*10+1)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	}
}

// epochsEqual reports whether the follower's shard epochs have reached
// the leader's.
func epochsEqual(leader, follower *smartstore.Store) bool {
	return reflect.DeepEqual(leader.ShardEpochs(), follower.ShardEpochs())
}

// TestFollowerCatchUpEquivalence is the replication core test: a
// follower bootstraps from the leader's snapshot, tails its WAL streams
// through a mutation storm, and must converge to bit-identical state —
// shard epochs, max file id and query answers — which it keeps serving
// after the leader dies abruptly.
func TestFollowerCatchUpEquivalence(t *testing.T) {
	leader, set, ts := startLeader(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fst, desc, err := repl.Bootstrap(ctx, ts.URL, "", followerCfg(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if desc != "bootstrapped from leader "+ts.URL {
		t.Fatalf("bootstrap desc = %q", desc)
	}
	f := repl.New(fst, ts.URL, testOpts())
	go f.Run(ctx)

	// Two rounds of writes while the follower tails; on-line queries
	// are exact on both sides without further ado.
	mutate(t, leader, set, 1)
	mutate(t, leader, set, 2)

	waitFor(t, 10*time.Second, "follower to reach leader epochs", func() bool {
		return epochsEqual(leader, fst)
	})
	waitFor(t, 10*time.Second, "follower status caught_up", func() bool {
		st := f.Status()
		return st.CaughtUp && st.LeaderReachable
	})

	if got, want := fst.MaxFileID(), leader.MaxFileID(); got != want {
		t.Fatalf("follower MaxFileID = %d, leader %d", got, want)
	}
	if got, want := fst.Stats().Files, leader.Stats().Files; got != want {
		t.Fatalf("follower files = %d, leader %d", got, want)
	}
	preKill := rangeIDs(t, leader)
	if got := rangeIDs(t, fst); !reflect.DeepEqual(got, preKill) {
		t.Fatalf("follower range answer diverges: %d ids vs leader %d", len(got), len(preKill))
	}

	// Abrupt leader death: the follower must keep serving the converged
	// state (reads never depended on the leader being alive).
	ts.CloseClientConnections()
	ts.Close()
	waitFor(t, 10*time.Second, "leader_reachable to drop", func() bool {
		return !f.Status().LeaderReachable
	})
	if got := rangeIDs(t, fst); !reflect.DeepEqual(got, preKill) {
		t.Fatal("follower answer changed after leader death")
	}

	// Promotion makes it a writable standalone store.
	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	nf := &smartstore.File{ID: fst.MaxFileID() + 1, Path: "/promoted/a.dat", Attrs: set.Files[3].Attrs}
	if _, err := fst.Insert(nf); err != nil {
		t.Fatalf("insert on promoted follower: %v", err)
	}
	if _, ok := fst.FileByID(nf.ID); !ok {
		t.Fatal("promoted follower lost its own insert")
	}
}

// TestPromoteUnderConcurrentWrites promotes a follower while the leader
// is still taking writes (run under -race in CI). The promoted state
// must be a consistent prefix of the leader's history: every
// multi-shard batch is present entirely or not at all, and every
// present file matches the leader's copy.
func TestPromoteUnderConcurrentWrites(t *testing.T) {
	leader, set, ts := startLeader(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fst, _, err := repl.Bootstrap(ctx, ts.URL, "", followerCfg(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	f := repl.New(fst, ts.URL, testOpts())
	go f.Run(ctx)

	// Writers insert multi-shard batches with ids in disjoint,
	// reconstructible blocks: batch (w, i) holds ids base+w*10000+i*10
	// + {1,2,3}.
	base := leader.MaxFileID()
	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 3
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				batch := make([]*smartstore.File, 3)
				for j := range batch {
					src := set.Files[(w*131+i*17+j*271)%len(set.Files)]
					batch[j] = &smartstore.File{
						ID:    base + uint64(w*10000+i*10+j+1),
						Path:  fmt.Sprintf("/conc/w%d/i%d/f%d", w, i, j),
						Attrs: src.Attrs,
					}
				}
				if _, err := leader.InsertBatch(batch); err != nil {
					t.Errorf("insert batch: %v", err)
					return
				}
			}
		}(w)
	}

	// Let some replication happen mid-storm, then promote.
	waitFor(t, 10*time.Second, "some records applied", func() bool {
		return f.Status().RecordsApplied > 0
	})
	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if !f.Status().Promoted {
		t.Fatal("status not promoted")
	}

	// Batch atomicity on the promoted store: for every batch the
	// workers wrote, the follower holds all three files or none.
	for w := 0; w < workers; w++ {
		for i := 0; ; i++ {
			first := base + uint64(w*10000+i*10+1)
			if _, ok := leader.FileByID(first); !ok {
				break // past this worker's last batch
			}
			var present int
			for j := 0; j < 3; j++ {
				if _, ok := fst.FileByID(base + uint64(w*10000+i*10+j+1)); ok {
					present++
				}
			}
			if present != 0 && present != 3 {
				t.Fatalf("batch (w=%d,i=%d) torn on promoted follower: %d/3 files", w, i, present)
			}
		}
	}

	// Every file the follower holds matches the leader's copy.
	for _, id := range rangeIDs(t, fst) {
		lf, ok := leader.FileByID(id)
		if !ok {
			t.Fatalf("follower holds id %d the leader never acknowledged", id)
		}
		ff, _ := fst.FileByID(id)
		if lf.Path != ff.Path {
			t.Fatalf("id %d path diverges: leader %q follower %q", id, lf.Path, ff.Path)
		}
	}

	// The promoted store takes writes.
	nf := &smartstore.File{ID: fst.MaxFileID() + 100000, Path: "/conc/post.dat", Attrs: set.Files[0].Attrs}
	if _, err := fst.Insert(nf); err != nil {
		t.Fatalf("insert on promoted follower: %v", err)
	}
}

// TestBootstrapReBootstrapsStaleReplica: a follower whose data dir fell
// behind the leader's checkpoint base cannot catch up from the log —
// Bootstrap must detect it, wipe the dir and re-fetch the snapshot.
func TestBootstrapReBootstrapsStaleReplica(t *testing.T) {
	leader, set, ts := startLeader(t, 2)
	ctx := context.Background()
	dir := t.TempDir()

	// First generation: bootstrap durable, catch up, shut down cleanly.
	fst, _, err := repl.Bootstrap(ctx, ts.URL, dir, followerCfg(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := repl.New(fst, ts.URL, testOpts())
	runCtx, cancelRun := context.WithCancel(ctx)
	go f.Run(runCtx)
	mutate(t, leader, set, 1)
	waitFor(t, 10*time.Second, "first-generation catch-up", func() bool {
		return epochsEqual(leader, fst)
	})
	cancelRun()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on and checkpoints: its replication base now
	// exceeds the parked replica's watermark.
	mutate(t, leader, set, 2)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Second generation over the same dir: recovery alone would leave a
	// gap, so Bootstrap must fall back to the snapshot path.
	fst2, desc, err := repl.Bootstrap(ctx, ts.URL, dir, followerCfg(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fst2.Close()
	if desc != "bootstrapped from leader "+ts.URL {
		t.Fatalf("stale replica was not re-bootstrapped: desc %q", desc)
	}
	if !epochsEqual(leader, fst2) {
		t.Fatalf("re-bootstrapped epochs %v != leader %v", fst2.ShardEpochs(), leader.ShardEpochs())
	}
}

// TestFollowerRejectsTornShips: a proxy truncates the first pulls of
// every shard mid-body — the follower must reject the torn ships whole
// and still converge once responses flow intact (the retry loop, not a
// silent prefix apply).
func TestFollowerRejectsTornShips(t *testing.T) {
	leader, set, ts := startLeader(t, 2)

	var torn atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(ts.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		// Tear the first four substantive WAL ships in half; everything
		// afterwards passes through intact. (Caught-up empty ships are
		// header-only and smaller than 64 bytes.)
		if r.URL.Path == "/v1/repl/wal" && len(body) > 64 && torn.Add(1) <= 4 {
			body = body[:len(body)/2]
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer proxy.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fst, _, err := repl.Bootstrap(ctx, proxy.URL, "", followerCfg(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	f := repl.New(fst, proxy.URL, testOpts())
	go f.Run(ctx)

	// Mutations land after the snapshot bootstrap, so they can only
	// reach the follower through the (initially torn) WAL ships.
	mutate(t, leader, set, 1)

	waitFor(t, 10*time.Second, "convergence through torn ships", func() bool {
		return epochsEqual(leader, fst)
	})
	if torn.Load() <= 4 {
		t.Fatalf("proxy tore only %d ships — the retry path was not exercised", torn.Load())
	}
	if got, want := rangeIDs(t, fst), rangeIDs(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatal("follower diverged after torn-ship retries")
	}
}
