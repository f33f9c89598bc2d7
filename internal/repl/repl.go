// Package repl is the follower half of SmartStore's per-shard
// WAL-shipping replication: it bootstraps a replica from a leader's
// snapshot (catch-up-from-checkpoint), then tails each shard's WAL
// segment stream over HTTP and folds the shipped records into the
// local store through the engine's recovery apply path — so a
// caught-up follower is state-identical to its leader, shard epochs
// included.
//
// The pull protocol is epoch-watermarked: each shard's puller asks
// GET /v1/repl/wal?shard=N&after=E for every record past E, where E is
// the highest epoch it has fetched. The leader answers in the wal ship
// framing (length-prefixed CRC-32C frames inside a counted envelope),
// so a response torn by a dying leader is detected and discarded
// whole, exactly like a torn segment tail on recovery. A leader
// checkpoint can truncate segments a lagging follower still needs; the
// response then carries SnapshotRequired instead of a gapped log. At
// bootstrap over a durable replica dir that triggers an automatic wipe
// and fresh snapshot fetch; on a live follower it stalls the shard and
// logs the operator instruction (restart with a cleared data dir) —
// a background loop does not wipe a store out from under its servers.
//
// Multi-shard insert batches are the one cross-shard ordering concern:
// a batch's per-shard fragments arrive on independent pullers, and
// applying one fragment before every declared target has arrived would
// let a leader crash strand half a batch on the follower. The Follower
// therefore withholds a batch fragment from the apply path until all
// its targets' fragments are queued (mirroring the completeness check
// recovery runs), and Promote drops still-incomplete fragments for the
// same reason recovery does: they were never acknowledged.
//
// See DESIGN.md §11 for the full protocol walkthrough and failure
// matrix.
package repl

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	smartstore "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// Options tunes a Follower. The zero value selects defaults.
type Options struct {
	// PollEvery is the idle pull cadence per shard once caught up;
	// behind, the puller re-pulls immediately. 0 selects 250ms.
	PollEvery time.Duration
	// Timeout bounds one HTTP pull round-trip. 0 selects 10s (snapshot
	// fetches use 10× this — they stream a full store).
	Timeout time.Duration
	// Logf sinks progress and warning lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.PollEvery <= 0 {
		o.PollEvery = 250 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Bootstrap produces the follower's local store for leader: if dataDir
// already holds an initialized replica it recovers locally (the pull
// resumes from the recovered epochs — no snapshot transfer), otherwise
// it fetches the leader's current snapshot and loads it with Load, which
// resumes the leader's epoch trajectory. cfg is the follower's
// deployment config; its DataDir field is overridden by dataDir (which
// may be empty for an in-memory follower).
//
// A recovered replica can have fallen behind the leader's replication
// base — a checkpoint truncated the segments that covered its
// watermark — in which case the log can never catch it up. Bootstrap
// probes each shard's tail once to detect that, wipes the stale
// replica dir, and falls through to a fresh snapshot fetch. When the
// leader is unreachable the probe is skipped: the recovered state
// serves reads and Run keeps retrying the pull.
func Bootstrap(ctx context.Context, leader, dataDir string, cfg smartstore.Config, opts Options) (*smartstore.Store, string, error) {
	opts = opts.withDefaults()
	leader = normalizeLeader(leader)
	cfg.DataDir = dataDir
	if dataDir != "" && smartstore.DataDirInitialized(dataDir) {
		st, err := smartstore.Open(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("repl: recovering replica dir %s: %w", dataDir, err)
		}
		stale, err := replicaStale(ctx, leader, st, opts)
		if err != nil {
			// Leader unreachable: keep the recovered replica; Run
			// retries.
			opts.Logf("repl: leader %s unreachable at bootstrap (%v); serving recovered replica", leader, err)
			return st, "recovered replica from " + dataDir, nil
		}
		if !stale {
			return st, "recovered replica from " + dataDir, nil
		}
		opts.Logf("repl: replica dir %s predates the leader's checkpoint base; re-bootstrapping from snapshot", dataDir)
		if err := st.Close(); err != nil {
			return nil, "", fmt.Errorf("repl: closing stale replica: %w", err)
		}
		if err := wipeReplicaDir(dataDir); err != nil {
			return nil, "", err
		}
	}
	st, err := fetchSnapshot(ctx, leader, cfg, opts)
	if err != nil {
		return nil, "", err
	}
	return st, "bootstrapped from leader " + leader, nil
}

// replicaStale probes one tail pull per shard at the recovered
// watermarks, reporting whether any shard needs a snapshot
// re-bootstrap. A transport failure is returned as an error — staleness
// unknown.
func replicaStale(ctx context.Context, leader string, st *smartstore.Store, opts Options) (bool, error) {
	hc := &http.Client{Timeout: opts.Timeout}
	for shard, epoch := range st.ShardEpochs() {
		resp, err := fetchTailHTTP(ctx, hc, leader, shard, epoch)
		if err != nil {
			return false, err
		}
		if resp.SnapshotRequired {
			return true, nil
		}
	}
	return false, nil
}

// fetchSnapshot streams GET /v1/repl/snapshot from the leader into
// Load.
func fetchSnapshot(ctx context.Context, leader string, cfg smartstore.Config, opts Options) (*smartstore.Store, error) {
	sctx, cancel := context.WithTimeout(ctx, 10*opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, leader+"/v1/repl/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: fetching leader snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: leader snapshot: status %d", resp.StatusCode)
	}
	st, err := smartstore.Load(resp.Body, cfg)
	if err != nil {
		return nil, fmt.Errorf("repl: loading leader snapshot: %w", err)
	}
	return st, nil
}

// normalizeLeader accepts either a bare "host:port" or a full base URL
// for the leader address, matching internal/client's convention.
func normalizeLeader(addr string) string {
	addr = strings.TrimSuffix(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// wipeReplicaDir empties a replica data dir so a fresh bootstrap can
// re-initialize it — the SnapshotRequired path. It refuses to touch
// anything that does not look like a replica dir's own contents.
func wipeReplicaDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("repl: %w", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("repl: wiping %s: %w", dir, err)
		}
	}
	return nil
}

// batchState tracks one multi-shard batch awaiting completeness.
type batchState struct {
	targets []int
	arrived map[int]bool
}

func (b *batchState) complete() bool {
	if len(b.targets) == 0 {
		return false
	}
	for _, t := range b.targets {
		if !b.arrived[t] {
			return false
		}
	}
	return true
}

// Follower tails a leader's per-shard WAL streams into a local store.
// It implements server.ReplController, so the daemon can hand it to
// the serving layer for /v1/repl/status and /v1/repl/promote.
type Follower struct {
	store  *smartstore.Store
	leader string
	opts   Options
	shards int
	hc     *http.Client

	// mu guards the queues, the pending-batch table, the per-shard
	// watermarks and flags. Pullers ingest under it; pumps extract
	// ready prefixes under it and apply outside it.
	mu             sync.Mutex
	queues         [][]wal.Record
	pending        map[uint64]*batchState
	fetchedThrough []uint64
	applying       []bool
	caughtUp       []bool
	snapshotStall  []bool

	promoted   atomic.Bool
	leaderUp   atomic.Bool
	applied    atomic.Uint64
	runStarted atomic.Bool

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New builds a Follower over the bootstrapped local store. Run starts
// the pull loops; until then the follower is inert (Status answers,
// Promote is legal and simply marks the store promoted).
func New(store *smartstore.Store, leader string, opts Options) *Follower {
	opts = opts.withDefaults()
	n := store.Shards()
	return &Follower{
		store:          store,
		leader:         normalizeLeader(leader),
		opts:           opts,
		shards:         n,
		hc:             &http.Client{Timeout: opts.Timeout},
		queues:         make([][]wal.Record, n),
		pending:        map[uint64]*batchState{},
		fetchedThrough: store.ShardEpochs(),
		applying:       make([]bool, n),
		caughtUp:       make([]bool, n),
		snapshotStall:  make([]bool, n),
		stopCh:         make(chan struct{}),
		done:           make(chan struct{}),
	}
}

// Run starts one puller per shard and blocks until ctx is cancelled or
// the follower is promoted. Pull errors are never fatal: a follower
// must stay alive precisely when its leader is dying, so an
// unreachable leader only marks leader_reachable false and the puller
// keeps retrying at the poll cadence.
func (f *Follower) Run(ctx context.Context) {
	if !f.runStarted.CompareAndSwap(false, true) {
		return
	}
	defer close(f.done)
	if f.promoted.Load() {
		return // promoted before Run: nothing to pull
	}
	var wg sync.WaitGroup
	for i := 0; i < f.shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			f.pullLoop(ctx, shard)
		}(i)
	}
	wg.Wait()
}

// pullLoop tails one shard: pull, ingest, pump, sleep when caught up.
func (f *Follower) pullLoop(ctx context.Context, shard int) {
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.stopCh:
			return
		case <-t.C:
		}
		again := f.pullOnce(ctx, shard)
		if again {
			t.Reset(0)
		} else {
			t.Reset(f.opts.PollEvery)
		}
	}
}

// pullOnce performs one pull round for shard, reporting whether the
// puller should immediately go again (still behind the leader).
func (f *Follower) pullOnce(ctx context.Context, shard int) bool {
	f.mu.Lock()
	after := f.fetchedThrough[shard]
	f.mu.Unlock()

	resp, err := f.fetchTail(ctx, shard, after)
	if err != nil {
		if f.leaderUp.Swap(false) {
			f.opts.Logf("repl: leader %s unreachable (shard %d): %v", f.leader, shard, err)
		}
		return false
	}
	if !f.leaderUp.Swap(true) {
		f.opts.Logf("repl: leader %s reachable again", f.leader)
	}
	if resp.SnapshotRequired {
		// The leader checkpointed past our watermark: the covering
		// segments are gone and this shard cannot catch up from the
		// log. Stall the shard and surface the condition — the operator
		// (or supervisor) restarts the follower with a cleared data dir
		// to re-bootstrap. Wiping a live store out from under its
		// serving layer is not something a background loop should do.
		f.mu.Lock()
		stalled := f.snapshotStall[shard]
		f.snapshotStall[shard] = true
		f.caughtUp[shard] = false
		f.mu.Unlock()
		if !stalled {
			f.opts.Logf("repl: shard %d fell behind the leader's checkpoint base %d (watermark %d): re-bootstrap required — restart the follower with an empty data dir",
				shard, resp.Base, after)
		}
		return false
	}
	if resp.Shard != shard {
		f.opts.Logf("repl: misrouted tail: asked shard %d, got %d", shard, resp.Shard)
		return false
	}
	f.ingest(shard, resp)
	// Pump every shard, not just this one: this ingest may hold the
	// last fragment another shard's queue was blocked on.
	f.pumpAll()
	// Re-poll immediately only while the leader reports more to ship;
	// a queue blocked on a cross-shard fragment resolves via the other
	// shards' pulls, not by hammering this one.
	return !resp.CaughtUp
}

// fetchTail round-trips one GET /v1/repl/wal pull.
func (f *Follower) fetchTail(ctx context.Context, shard int, after uint64) (*wal.TailResponse, error) {
	return fetchTailHTTP(ctx, f.hc, f.leader, shard, after)
}

// fetchTailHTTP is the raw tail pull, shared by the follower's pull
// loops and the bootstrap staleness probe. Raw net/http rather than
// internal/client: the ship framing is binary and the puller wants no
// retry magic between itself and the leader's truth.
func fetchTailHTTP(ctx context.Context, hc *http.Client, leader string, shard int, after uint64) (*wal.TailResponse, error) {
	url := fmt.Sprintf("%s/v1/repl/wal?shard=%d&after=%d", leader, shard, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return wal.DecodeTail(resp.Body)
}

// ingest queues a pull's records under mu, registers multi-shard batch
// fragments in the pending table, and advances the shard's fetch
// watermark.
func (f *Follower) ingest(shard int, resp *wal.TailResponse) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range resp.Records {
		f.queues[shard] = append(f.queues[shard], rec)
		if rec.Epoch > f.fetchedThrough[shard] {
			f.fetchedThrough[shard] = rec.Epoch
		}
		if rec.BatchID != 0 {
			b := f.pending[rec.BatchID]
			if b == nil {
				b = &batchState{targets: rec.Targets, arrived: map[int]bool{}}
				f.pending[rec.BatchID] = b
			}
			b.arrived[shard] = true
		}
	}
	f.caughtUp[shard] = resp.CaughtUp && len(f.queues[shard]) == 0
}

// pump drains shard's queue: it extracts the maximal ready prefix —
// stopping at the first fragment of a still-incomplete multi-shard
// batch — applies it outside mu, and repeats until the queue has no
// ready prefix. The applying flag serializes pumps per shard (another
// shard's ingest may complete a batch and pump this shard) while
// keeping the shared mutex free during the apply itself.
func (f *Follower) pump(shard int) {
	for {
		f.mu.Lock()
		if f.applying[shard] || len(f.queues[shard]) == 0 {
			f.mu.Unlock()
			return
		}
		ready := 0
		for _, rec := range f.queues[shard] {
			if rec.BatchID != 0 && !f.pending[rec.BatchID].complete() {
				break
			}
			ready++
		}
		if ready == 0 {
			f.mu.Unlock()
			return
		}
		batch := make([]wal.Record, ready)
		copy(batch, f.queues[shard][:ready])
		f.queues[shard] = f.queues[shard][ready:]
		f.applying[shard] = true
		f.mu.Unlock()

		n, err := f.store.ApplyReplicated(shard, batch)
		f.applied.Add(uint64(n))

		f.mu.Lock()
		f.applying[shard] = false
		// A multi-shard batch this shard just applied may have been the
		// last arrival other shards were waiting on — their pumps run
		// from their own ingests; this loop only re-checks its own
		// queue. Caught-up tracking: the queue may have refilled while
		// applying.
		if len(f.queues[shard]) > 0 {
			f.caughtUp[shard] = false
		}
		f.mu.Unlock()
		if err != nil {
			f.opts.Logf("repl: apply shard %d: %v", shard, err)
			return
		}
	}
}

// pumpAll re-checks every shard's queue — used after promotion-time
// fragment drops and by ingests that complete a cross-shard batch.
func (f *Follower) pumpAll() {
	for i := 0; i < f.shards; i++ {
		f.pump(i)
	}
}

// Promote stops the pull loops, drops still-incomplete multi-shard
// batch fragments (they were never acknowledged by the leader —
// exactly what recovery would drop), applies everything else queued,
// and checkpoints a durable store so the promoted state is the next
// recovery base. Idempotent; safe to call whether or not Run started.
// After Promote returns the store holds every complete mutation the
// follower ever fetched and is ready for writes.
func (f *Follower) Promote() error {
	f.stopOnce.Do(func() { close(f.stopCh) })
	if f.promoted.Swap(true) {
		return nil
	}
	if f.runStarted.Load() {
		<-f.done // pullers drained: no ingest races the drop below
	}

	f.mu.Lock()
	for shard := range f.queues {
		kept := f.queues[shard][:0]
		for _, rec := range f.queues[shard] {
			if rec.BatchID != 0 && !f.pending[rec.BatchID].complete() {
				continue
			}
			kept = append(kept, rec)
		}
		f.queues[shard] = kept
	}
	f.mu.Unlock()
	f.pumpAll()

	if f.store.Durable() {
		if err := f.store.Checkpoint(); err != nil {
			return fmt.Errorf("repl: promotion checkpoint: %w", err)
		}
	}
	f.opts.Logf("repl: promoted (was following %s; %d records applied)", f.leader, f.applied.Load())
	return nil
}

// Status reports the follower's replication progress. The server
// overlays ReadOnly and ShardEpochs from its own state.
func (f *Follower) Status() server.ReplStatusWire {
	f.mu.Lock()
	caught := true
	for i := range f.caughtUp {
		if !f.caughtUp[i] || len(f.queues[i]) > 0 {
			caught = false
			break
		}
	}
	f.mu.Unlock()
	return server.ReplStatusWire{
		Following:       f.leader,
		Promoted:        f.promoted.Load(),
		CaughtUp:        caught,
		LeaderReachable: f.leaderUp.Load(),
		RecordsApplied:  f.applied.Load(),
	}
}
