// Package server is the concurrent serving layer over a SmartStore:
// an HTTP/JSON metadata service (stdlib net/http only) exposing the
// point/range/top-k query paths and the insert/delete/modify update
// paths over the wire, in front of the thread-safe Store.
//
// The HTTP side of that — routes, admission, decoding and content
// negotiation, tracing, the error→status table, the serving metric
// families — is the Core (core.go), which serves any Backend; this
// package's Server is the Backend over a local Store, and
// internal/gateway's is the one that fans out to other daemons.
//
// Three mechanisms turn the library into a service:
//
//   - the Store's sharded engine (per-shard locking, parallel query
//     fan-out, a composed mutation epoch — see the root package and
//     internal/engine);
//   - an LRU query-result cache keyed by normalized query text and
//     invalidated wholesale on any composed-epoch change, so the common
//     read-heavy metadata workload short-circuits repeated complex
//     queries regardless of which shard a mutation landed on;
//   - bounded worker-pool admission (in the Core): at most Workers
//     requests execute concurrently and at most MaxQueue more wait;
//     beyond that the server sheds load with 503 instead of collapsing
//     under it.
//
// See DESIGN.md §5 for the endpoint reference with curl examples.
package server

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	smartstore "repro"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// Options parameterizes a Server. The zero value selects defaults.
type Options struct {
	// CacheEntries bounds the query-result cache; 0 selects 1024 and a
	// negative value disables caching.
	CacheEntries int
	// Workers bounds concurrently executing requests; 0 selects
	// 2×GOMAXPROCS.
	Workers int
	// MaxQueue bounds requests waiting for a worker slot; 0 selects
	// 8×Workers. Waiters beyond the bound are rejected with 503.
	MaxQueue int
	// DisableMetrics drops the metrics registry entirely: /v1/metrics
	// is not routed and every instrumentation hook short-circuits on a
	// nil check.
	DisableMetrics bool
	// SlowQuery, when positive, logs any served request whose total
	// wall time (admission wait included) exceeds it, with its full
	// phase breakdown.
	SlowQuery time.Duration
	// ReadOnly starts the server with mutations rejected (503) — the
	// serving posture of a replication follower. Promotion lifts it.
	ReadOnly bool
	// Repl is the follower-side replication controller (status +
	// promotion); nil on a store that is not following a leader.
	Repl ReplController
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	}
	if o.Workers <= 0 {
		o.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 8 * o.Workers
	}
	return o
}

// Server serves a Store over HTTP: the shared Core in front of the
// store-plus-cache Backend. It implements http.Handler.
type Server struct {
	*Core
	store *smartstore.Store
	opts  Options
	cache *queryCache
	// ids is held across the batch commit (IDAllocator); inserts
	// serialize on the store's write lock anyway, so that costs no
	// concurrency.
	ids *IDAllocator

	// readOnly rejects mutations while the store follows a leader;
	// promotion clears it (repl.go).
	readOnly atomic.Bool
}

// New builds a Server over store. Fresh ids for inserts without one are
// allocated above the store's current maximum.
func New(store *smartstore.Store, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{store: store, opts: opts, ids: NewIDAllocator(store.MaxFileID())}
	if opts.CacheEntries > 0 {
		s.cache = newQueryCache(opts.CacheEntries)
	}
	s.readOnly.Store(opts.ReadOnly)
	s.Core = NewCore(s, CoreConfig{
		Prefix:         "smartstore",
		Workers:        opts.Workers,
		MaxQueue:       opts.MaxQueue,
		DisableMetrics: opts.DisableMetrics,
		SlowQuery:      opts.SlowQuery,
	})
	if reg := s.Registry(); reg != nil {
		s.registerCacheMetrics(reg)
		store.Instrument(reg)
	}
	s.Handle("GET /v1/repl/snapshot", "repl_snapshot", s.handleReplSnapshot)
	s.Handle("GET /v1/repl/wal", "repl_wal", s.handleReplWAL)
	s.Handle("GET /v1/repl/status", "repl_status", s.handleReplStatus)
	s.Handle("POST /v1/repl/promote", "repl_promote", s.handleReplPromote)
	return s
}

// registerCacheMetrics exposes the query cache's counters.
func (s *Server) registerCacheMetrics(reg *obs.Registry) {
	for _, c := range []struct {
		name, help string
		get        func(CacheStats) uint64
	}{
		{"smartstore_cache_hits_total", "Query-cache hits.", func(cs CacheStats) uint64 { return cs.Hits }},
		{"smartstore_cache_misses_total", "Query-cache misses.", func(cs CacheStats) uint64 { return cs.Misses }},
		{"smartstore_cache_evictions_total", "Query-cache LRU evictions.", func(cs CacheStats) uint64 { return cs.Evictions }},
		{"smartstore_cache_invalidations_total", "Query-cache epoch invalidations.", func(cs CacheStats) uint64 { return cs.Invalidations }},
	} {
		get := c.get
		reg.RegisterCounterFunc(c.name, "", c.help,
			func() float64 { return float64(get(s.cache.stats())) })
	}
}

// Healthy: a local store that is up is healthy.
func (s *Server) Healthy() bool { return true }

// resolveMode replaces ModeDefault with the store's configured path so
// cache keys treat "default" and an explicit option equal to it as the
// same query.
func (s *Server) resolveMode(m smartstore.QueryMode) smartstore.QueryMode {
	if m != smartstore.ModeDefault {
		return m
	}
	if s.store.Mode() == smartstore.OnLine {
		return smartstore.ModeOnline
	}
	return smartstore.ModeOffline
}

// Query runs one validated query through the cache, which keys
// invalidation on the epochs of exactly the shards the query targets.
// The epoch vector is observed before executing so a mutation landing
// mid-query can only invalidate early, never leave a stale entry
// behind.
func (s *Server) Query(ctx context.Context, q smartstore.Query) (QueryResponse, error) {
	if s.cache == nil {
		resp, _, err := s.runQuery(ctx, q)
		return resp, err
	}
	key := queryKey(q, s.resolveMode(q.Options.Mode))
	epochs := s.store.ShardEpochs()
	if tr := obs.TraceFrom(ctx); tr != nil {
		lookupStart := time.Now()
		resp, ok := s.cache.get(key, epochs)
		tr.AddPhase("cache_lookup", time.Since(lookupStart))
		if ok {
			return resp, nil
		}
	} else if resp, ok := s.cache.get(key, epochs); ok {
		return resp, nil
	}
	resp, targets, err := s.runQuery(ctx, q)
	if err != nil {
		return QueryResponse{}, err
	}
	// Record-heavy answers are served but not cached: entries hold full
	// responses while the LRU bounds entry count, not bytes, so broad
	// projected answers could otherwise pin corpus-sized record arrays
	// across every cache slot.
	if len(resp.Records) <= maxCachedRecords {
		s.cache.put(key, targets, epochs, resp)
	}
	return resp, nil
}

// maxCachedRecords bounds the projected-record payload a single cache
// entry may hold; larger answers recompute on every request.
const maxCachedRecords = 1024

// runQuery executes q against the store and shapes the wire response,
// also returning the engine shard set the query targeted (the cache's
// invalidation key).
func (s *Server) runQuery(ctx context.Context, q smartstore.Query) (QueryResponse, []int, error) {
	tr := obs.TraceFrom(ctx)
	var execStart time.Time
	if tr != nil {
		execStart = time.Now()
	}
	res, err := s.store.Do(ctx, q)
	if tr != nil {
		tr.AddPhase("execute", time.Since(execStart))
	}
	if err != nil {
		return QueryResponse{}, nil, err
	}
	resp := QueryResponse{
		Kind:      q.Kind.String(),
		IDs:       res.IDs,
		Count:     len(res.IDs),
		Truncated: res.Truncated,
		Dists:     res.Dists,
		Report:    res.Report,
	}
	if q.Options.IncludeRecords {
		resp.Records = make([]FileRecord, len(res.Records))
		for i := range res.Records {
			resp.Records[i] = RecordFromFile(&res.Records[i])
		}
	}
	return resp, res.Shards, nil
}

func (s *Server) Insert(_ context.Context, recs []FileRecord) (InsertResponse, error) {
	if err := s.writable(); err != nil {
		return InsertResponse{}, err
	}
	s.ids.Lock()
	defer s.ids.Unlock()
	files, err := s.ids.Assign(recs)
	if err != nil {
		return InsertResponse{}, err
	}
	// A batch the engine refuses (duplicate id) is the client's fault and
	// a WAL failure the server's; the status table tells them apart.
	rep, err := s.store.InsertBatch(files)
	if err != nil {
		return InsertResponse{}, fmt.Errorf("insert: %w", err)
	}
	ids := make([]uint64, len(files))
	for i, f := range files {
		ids[i] = f.ID
	}
	return InsertResponse{
		Inserted: len(files),
		IDs:      ids,
		Epoch:    s.store.Epoch(),
		Report:   rep,
	}, nil
}

func (s *Server) Delete(_ context.Context, id uint64) (MutateResponse, error) {
	if err := s.writable(); err != nil {
		return MutateResponse{}, err
	}
	rep, found, err := s.store.Delete(id)
	if err != nil {
		// A WAL append failure: the delete was rejected before applying
		// — surface it as a server-side error, not a quiet not-found.
		return MutateResponse{}, err
	}
	return MutateResponse{Found: found, Epoch: s.store.Epoch(), Report: rep}, nil
}

func (s *Server) Modify(_ context.Context, rec FileRecord) (MutateResponse, error) {
	if err := s.writable(); err != nil {
		return MutateResponse{}, err
	}
	// Merge semantics: attributes not named in the request keep their
	// stored values. The store merges under the owning shard's write
	// lock, so concurrent partial modifies of one id cannot overwrite
	// each other's acknowledged attributes.
	attrs := make(map[metadata.Attr]float64, len(rec.Attrs))
	for name, v := range rec.Attrs {
		a, err := metadata.ParseAttr(name)
		if err != nil {
			return MutateResponse{}, BadRequest("modify: %v", err)
		}
		attrs[a] = v
	}
	rep, found, err := s.store.ModifyAttrs(rec.ID, attrs)
	if err != nil {
		return MutateResponse{}, err
	}
	return MutateResponse{Found: found, Epoch: s.store.Epoch(), Report: rep}, nil
}

func (s *Server) Flush(context.Context) (FlushResponse, error) {
	if err := s.writable(); err != nil {
		return FlushResponse{}, err
	}
	if err := s.store.Flush(); err != nil {
		return FlushResponse{}, err
	}
	return FlushResponse{Epoch: s.store.Epoch()}, nil
}

func (s *Server) Stats(context.Context) (StatsResponse, error) {
	var walStats *WALStats
	if s.store.Durable() {
		ws := s.store.WALStats()
		walStats = &ws
	}
	placement := s.store.Placement()
	return StatsResponse{
		Placement: &PlacementWire{
			Attrs:     AttrNames(placement.Attrs),
			Centroid:  placement.Centroid,
			Lo:        placement.Lo,
			Hi:        placement.Hi,
			MaxFileID: s.store.MaxFileID(),
		},
		WAL:    walStats,
		Store:  s.store.Stats(),
		Server: ServerStats{Cache: s.cache.stats()},
	}, nil
}
