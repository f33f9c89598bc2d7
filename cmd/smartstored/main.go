// Command smartstored is the SmartStore metadata daemon: it deploys a
// store — bootstrapped from a synthesized trace, restored from a
// snapshot, or recovered from a durable data dir — and serves the
// HTTP/JSON metadata API of internal/server.
//
// Usage:
//
//	smartstored -addr :7070 -trace MSN -files 20000
//	smartstored -addr :7070 -load store.snap -versioning
//	smartstored -addr :7070 -trace HP -cache 8192 -workers 16
//	smartstored -addr :7070 -shards 4 -data-dir /var/lib/smartstore
//
// With -data-dir the store is durable: each engine shard appends every
// mutation to its own segmented write-ahead log before applying it
// (-fsync picks the always/interval/never sync policy; under always,
// each log group-commits concurrent appenders — see DESIGN.md §7 for
// what that batches today), checkpoints fold
// the logs into a snapshot both periodically (-checkpoint-every) and
// when the live WAL outgrows -checkpoint-bytes, and a daemon restarted
// over the same data dir recovers the last acknowledged pre-crash
// state — snapshot load plus parallel per-shard WAL replay. Defaults
// worth knowing: -shards 1 (unsharded; must not exceed -units, default
// 60), -max-children 0 → fan-out M=10, -min-children 0 → m=2
// (validated as 2 ≤ m ≤ M/2, a violation is a startup error, not a
// panic), -fsync always, -checkpoint-every 5m, -checkpoint-bytes 0
// (size trigger off).
//
// With -follow the daemon runs as a replication follower instead of a
// leader: it bootstraps from the leader's snapshot endpoint, tails its
// per-shard WAL segment streams, and serves the same query API
// read-only (mutations answer 503) until POST /v1/repl/promote — or a
// smartgate failing the dead leader over — promotes it to a writable
// standalone store. See DESIGN.md §11 for the protocol and the
// failover state machine.
//
// Probe it with curl (see DESIGN.md §5 for the full API and §7 for the
// durability design):
//
//	curl -s localhost:7070/v1/stats
//	curl -s -X POST localhost:7070/v1/query \
//	  -d '{"kind":"range","attrs":["mtime","read_bytes"],"lo":[36000,3e7],"hi":[59000,5e7]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	smartstore "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	traceName := flag.String("trace", "MSN", "trace to synthesize: HP, MSN or EECS")
	files := flag.Int("files", 20000, "sample population for trace bootstrap")
	units := flag.Int("units", 60, "storage units (metadata servers), summed across shards")
	shards := flag.Int("shards", 1, "independent engine shards (default 1 = unsharded; must not exceed -units)")
	seed := flag.Uint64("seed", 42, "random seed")
	idOffset := flag.Uint64("id-offset", 0, "offset added to every trace-synthesized file id (gives each member of a smartgate federation a disjoint id space)")
	loadPath := flag.String("load", "", "restore the store from a snapshot file instead of synthesizing")
	versioning := flag.Bool("versioning", false, "enable consistency versioning")
	online := flag.Bool("online", false, "use the on-line multicast query path")
	offlineBudget := flag.Int("offline-budget", 0, "off-line search budget: groups per shard and shards per query (0 = adaptive heuristics; ≥ group and shard counts = exhaustive, exact answers)")
	maxChildren := flag.Int("max-children", 0, "semantic R-tree max fan-out M (default 0 = 10)")
	minChildren := flag.Int("min-children", 0, "semantic R-tree min fan-out m (default 0 = 2; validated 2 ≤ m ≤ M/2)")
	cacheEntries := flag.Int("cache", 4096, "query-result cache entries (negative disables)")
	workers := flag.Int("workers", 0, "max concurrently executing requests (0 = 2×GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker (0 = 8×workers)")
	dataDir := flag.String("data-dir", "", "durable data dir: per-shard write-ahead logs + checkpoint snapshots; restart recovers the pre-crash store")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always (fsync before every ack), interval (periodic), never (OS decides)")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute, "periodic snapshot+WAL-truncation period with -data-dir (0 disables)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "checkpoint when the live WAL (summed across shards) outgrows this many bytes (0 disables size-triggered checkpoints)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "rotate each shard's WAL to a fresh segment past this many bytes (0 = 1 MiB default)")
	metricsOn := flag.Bool("metrics", true, "expose Prometheus metrics at /v1/metrics")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (off by default; enables remote profiling)")
	slowQuery := flag.Duration("slow-query", 0, "log any request slower than this with its per-phase breakdown (0 disables)")
	follow := flag.String("follow", "", "run as a replication follower of this leader address (read-only until promoted; see DESIGN.md §11)")
	followPoll := flag.Duration("follow-poll", 250*time.Millisecond, "WAL tail poll period while caught up with -follow")
	flag.Parse()

	// The signal context is created before bootstrap so a follower's
	// snapshot fetch and catch-up are themselves interruptible.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bo := bootstrapOpts{
		loadPath:        *loadPath,
		trace:           *traceName,
		files:           *files,
		units:           *units,
		shards:          *shards,
		seed:            *seed,
		idOffset:        *idOffset,
		versioning:      *versioning,
		online:          *online,
		offlineBudget:   *offlineBudget,
		maxChildren:     *maxChildren,
		minChildren:     *minChildren,
		dataDir:         *dataDir,
		fsync:           *fsyncPolicy,
		fsyncInterval:   *fsyncInterval,
		checkpointBytes: *checkpointBytes,
		walSegmentBytes: *walSegmentBytes,
	}

	var store *smartstore.Store
	var desc string
	var err error
	var follower *repl.Follower
	if *follow != "" {
		if *loadPath != "" {
			log.Fatal("smartstored: -follow is incompatible with -load (the follower bootstraps from the leader's snapshot)")
		}
		cfg, cErr := buildConfig(bo)
		if cErr != nil {
			log.Fatalf("smartstored: %v", cErr)
		}
		store, desc, err = repl.Bootstrap(ctx, *follow, *dataDir, cfg, repl.Options{
			PollEvery: *followPoll,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("smartstored: %v", err)
		}
		follower = repl.New(store, *follow, repl.Options{
			PollEvery: *followPoll,
			Logf:      log.Printf,
		})
	} else {
		store, desc, err = bootstrap(bo)
		if err != nil {
			log.Fatalf("smartstored: %v", err)
		}
	}

	srvOpts := server.Options{
		CacheEntries:   *cacheEntries,
		Workers:        *workers,
		MaxQueue:       *queue,
		DisableMetrics: !*metricsOn,
		SlowQuery:      *slowQuery,
	}
	if follower != nil {
		srvOpts.ReadOnly = true
		srvOpts.Repl = follower
	}
	srv := server.New(store, srvOpts)
	var handler http.Handler = srv
	if *pprofOn {
		// pprof stays opt-in: it exposes heap contents and stack traces,
		// so it must never ride along silently on a production port.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		log.Print("smartstored: pprof enabled under /debug/pprof/")
	}
	st := store.Stats()
	log.Printf("smartstored: %s — %d files in %d units across %d shards (%d index units, height %d)",
		desc, st.Files, st.Units, st.Shards, st.IndexUnits, st.TreeHeight)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if follower != nil {
		log.Printf("smartstored: following %s (read-only until promoted)", *follow)
		go follower.Run(ctx)
	}

	// Periodic checkpoint: fold the WAL tails into the snapshot and
	// truncate the logs, bounding both recovery replay time and log
	// growth. A failed checkpoint is an operational warning, not fatal
	// — the WAL still holds everything and the next tick retries. The
	// goroutine is joined before Close so a tick racing shutdown can
	// never checkpoint against closed logs.
	var ckptDone chan struct{}
	if *dataDir != "" && *checkpointEvery > 0 {
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			t := time.NewTicker(*checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := store.Checkpoint(); err != nil {
						log.Printf("smartstored: checkpoint: %v", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("smartstored: serving on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("smartstored: %v", err)
		}
	case <-ctx.Done():
		log.Print("smartstored: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("smartstored: shutdown: %v", err)
		}
		if ckptDone != nil {
			<-ckptDone // ctx is done; joins any in-flight checkpoint
		}
		// Final checkpoint + log close: a cleanly stopped daemon
		// restarts with an empty WAL tail to replay.
		if err := store.Close(); err != nil {
			log.Printf("smartstored: close: %v", err)
		}
	}
}

// bootstrapOpts collects the store-construction flags. Everything in
// here crosses the wire boundary from operator flags, so bootstrap must
// return an error — never panic — on any invalid combination.
type bootstrapOpts struct {
	loadPath                 string
	trace                    string
	files, units, shards     int
	seed                     uint64
	idOffset                 uint64
	versioning, online       bool
	offlineBudget            int
	maxChildren, minChildren int
	dataDir                  string
	fsync                    string
	fsyncInterval            time.Duration
	checkpointBytes          int64
	walSegmentBytes          int64
}

// buildConfig translates the operator flags into a store Config; it is
// shared by leader bootstrap and follower bootstrap (repl.Bootstrap),
// so both modes interpret -fsync, -units and friends identically.
func buildConfig(o bootstrapOpts) (smartstore.Config, error) {
	mode := smartstore.OffLine
	if o.online {
		mode = smartstore.OnLine
	}
	durability := smartstore.DurabilityAlways
	if o.dataDir != "" {
		var err error
		durability, err = smartstore.ParseDurability(o.fsync)
		if err != nil {
			return smartstore.Config{}, err
		}
	}
	return smartstore.Config{
		Units:              o.units,
		Shards:             o.shards,
		Seed:               o.seed,
		Versioning:         o.versioning,
		Mode:               mode,
		OfflineGroupBudget: o.offlineBudget,
		MaxChildren:        o.maxChildren,
		MinChildren:        o.minChildren,
		DataDir:            o.dataDir,
		Durability:         durability,
		SyncInterval:       o.fsyncInterval,
		CheckpointBytes:    o.checkpointBytes,
		WALSegmentBytes:    o.walSegmentBytes,
	}, nil
}

// bootstrap builds the store: recovered from an initialized data dir,
// restored from a snapshot file, or synthesized from a trace. With a
// data dir, bootstrap sources initialize it (refusing one that already
// holds a deployment) and recovery replays its WAL tails.
func bootstrap(o bootstrapOpts) (*smartstore.Store, string, error) {
	cfg, err := buildConfig(o)
	if err != nil {
		return nil, "", err
	}

	if o.dataDir != "" && smartstore.DataDirInitialized(o.dataDir) {
		if o.loadPath != "" {
			return nil, "", fmt.Errorf("data dir %s is already initialized; -load would orphan its state (recover without -load, or point -data-dir somewhere fresh)", o.dataDir)
		}
		store, err := smartstore.Open(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("recovering %s: %w", o.dataDir, err)
		}
		return store, "recovered from " + o.dataDir, nil
	}

	if o.loadPath != "" {
		f, err := os.Open(o.loadPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		store, err := smartstore.Load(f, cfg)
		if err != nil {
			return nil, "", fmt.Errorf("restoring %s: %w", o.loadPath, err)
		}
		return store, "restored from " + o.loadPath, nil
	}

	set, err := smartstore.GenerateTrace(o.trace, o.files, o.seed)
	if err != nil {
		return nil, "", err
	}
	if o.idOffset > 0 {
		// Disjoint id spaces are a federation invariant: a smartgate
		// merges per-backend answers assuming no id lives on two members.
		for _, f := range set.Files {
			f.ID += o.idOffset
		}
	}
	store, err := smartstore.Build(set.Files, cfg)
	if err != nil {
		return nil, "", err
	}
	return store, "bootstrapped from trace " + o.trace, nil
}
