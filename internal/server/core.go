package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	smartstore "repro"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Backend is what a Core serves: the local store-plus-cache (Server)
// or the federating gateway. Everything about the §5 wire API that
// does not depend on where the files live — admission, decoding,
// content negotiation, tracing, error mapping, metrics — is the Core's;
// a Backend only answers already-validated operations.
type Backend interface {
	// Query answers one validated query. An implementation records its
	// own phases (cache_lookup, execute) on the context's trace; one
	// that fans out over the network returns its per-member rows as
	// resp.Trace.Backends, which the Core folds into the request's trace.
	Query(ctx context.Context, q smartstore.Query) (QueryResponse, error)
	// Insert commits a non-empty batch, assigning ids to the records
	// that carry none (IDAllocator).
	Insert(ctx context.Context, recs []FileRecord) (InsertResponse, error)
	// Delete removes the file with the given non-zero id.
	Delete(ctx context.Context, id uint64) (MutateResponse, error)
	// Modify merges rec.Attrs into the stored file with rec's non-zero id.
	Modify(ctx context.Context, rec FileRecord) (MutateResponse, error)
	// Stats reports everything but the Server counters (the cache
	// section excepted) and Build, which the Core fills in.
	Stats(ctx context.Context) (StatsResponse, error)
	// Healthy is the /healthz verdict.
	Healthy() bool
}

// CoreConfig carries what the two front-ends' Options share.
type CoreConfig struct {
	// Prefix names the metric families ("smartstore", "smartgate") and
	// the slow-query log lines.
	Prefix string
	// Workers and MaxQueue bound executing and waiting requests.
	Workers, MaxQueue int
	// DisableMetrics drops the registry and the /v1/metrics route.
	DisableMetrics bool
	// SlowQuery, when positive, logs requests slower than it.
	SlowQuery time.Duration
}

// Core is the HTTP serving core shared by smartstored and smartgate:
// the §5 routes with bounded admission, request tracing, JSON/binary
// negotiation and one error→status table, over a Backend. It
// implements http.Handler.
type Core struct {
	backend Backend
	cfg     CoreConfig
	mux     *http.ServeMux
	start   time.Time
	build   BuildWire

	sem chan struct{}
	// inflight counts admitted-or-waiting requests; bounded by
	// Workers+MaxQueue so at most MaxQueue wait while Workers execute.
	inflight atomic.Int64
	requests atomic.Uint64
	rejected atomic.Uint64

	// metrics is nil when CoreConfig.DisableMetrics is set.
	metrics *coreMetrics
}

// NewCore routes the §5 wire API over backend.
func NewCore(backend Backend, cfg CoreConfig) *Core {
	c := &Core{
		backend: backend,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		build:   readBuild(),
		sem:     make(chan struct{}, cfg.Workers),
	}
	if !cfg.DisableMetrics {
		c.metrics = newCoreMetrics(c)
		c.mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	}
	c.Handle("POST /v1/query", "query", c.handleQuery)
	c.Handle("POST /v1/insert", "insert", c.handleInsert)
	c.Handle("POST /v1/delete", "delete", c.handleDelete)
	c.Handle("POST /v1/modify", "modify", c.handleModify)
	c.Handle("POST /v1/flush", "flush", c.handleFlush)
	c.Handle("GET /v1/stats", "stats", c.handleStats)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// An unhealthy front-end fails its own probe, so a load balancer
		// in front of several routes around it.
		ok, status := c.backend.Healthy(), http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]bool{"ok": ok})
	})
	return c
}

func (c *Core) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Registry is where a front-end registers the families only it feeds;
// nil when metrics are disabled.
func (c *Core) Registry() *obs.Registry {
	if c.metrics == nil {
		return nil
	}
	return c.metrics.reg
}

// Handle routes pattern to h under admission control, accounted under
// the given endpoint label.
func (c *Core) Handle(pattern, endpoint string, h func(w http.ResponseWriter, r *http.Request) error) {
	c.mux.HandleFunc(pattern, c.admitted(c.metrics.endpoint(endpoint), endpoint, h))
}

// errBusy is returned by admission when the wait queue is full.
var errBusy = WithStatus(http.StatusServiceUnavailable, errors.New("server at capacity"))

// admit blocks until a worker slot frees, the request is cancelled, or
// the wait queue overflows. On success the caller must invoke release.
func (c *Core) admit(r *http.Request) (release func(), err error) {
	if c.inflight.Add(1) > int64(c.cfg.Workers+c.cfg.MaxQueue) {
		c.inflight.Add(-1)
		return nil, errBusy
	}
	select {
	case c.sem <- struct{}{}:
		return func() { <-c.sem; c.inflight.Add(-1) }, nil
	case <-r.Context().Done():
		c.inflight.Add(-1)
		return nil, r.Context().Err()
	}
}

// admitted wraps a handler with admission control, request accounting,
// instrumentation (per-endpoint counters and latency, admission wait,
// trace capture, slow-query logging) and error mapping.
func (c *Core) admitted(em *endpointMetrics, endpoint string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		em.observeRequest()
		start := time.Now()
		release, err := c.admit(r)
		if err != nil {
			c.rejected.Add(1)
			writeError(w, err)
			return
		}
		wait := time.Since(start)
		c.metrics.observeAdmissionWait(wait)
		var tr *obs.QueryTrace
		if c.cfg.SlowQuery > 0 || r.Header.Get(TraceHeader) != "" {
			var ctx context.Context
			ctx, tr = obs.WithTrace(r.Context())
			tr.AddPhase("admission_wait", wait)
			r = r.WithContext(ctx)
		}
		defer func() {
			release()
			total := time.Since(start)
			em.observeDuration(total)
			if c.cfg.SlowQuery > 0 && total >= c.cfg.SlowQuery {
				log.Printf("%s: slow %s request: total=%s %s", c.cfg.Prefix, endpoint, total, tr)
			}
		}()
		if err := h(w, r); err != nil {
			writeError(w, err)
		}
	}
}

// statusError is an error that names the HTTP status it answers with.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// WithStatus types err for the status table: a front-end extends the
// mapping (the gateway's 502/503 cases) by returning such errors, not
// by mapping again.
func WithStatus(code int, err error) error { return &statusError{code: code, err: err} }

// BadRequest is a formatted 400: malformed body, unknown attribute,
// missing id.
func BadRequest(format string, args ...any) error {
	return WithStatus(http.StatusBadRequest, fmt.Errorf(format, args...))
}

// statusOf is the one error→status table. 499 is "client went away"
// (queued or mid-request); an untyped error is the server's own fault.
func statusOf(err error) int {
	var se *statusError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, smartstore.ErrInvalidQuery), errors.Is(err, smartstore.ErrInvalidBatch):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// maxBodyBytes bounds request bodies (batch inserts dominate sizing).
const maxBodyBytes = 16 << 20

func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		return BadRequest("decoding request: %v", err)
	}
	return nil
}

// decodeQueryRequest decodes a /v1/query body in whichever codec the
// request's Content-Type names: the binary frame format when it is
// wire.ContentType, JSON otherwise. Malformed frames — bad CRC, short
// payload, trailing bytes — answer 400 exactly like malformed JSON.
func decodeQueryRequest(r *http.Request, req *QueryRequest) error {
	if !wire.IsBinary(r.Header.Get("Content-Type")) {
		return decode(r, req)
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return BadRequest("reading request: %v", err)
	}
	decoded, err := wire.DecodeRequest(body)
	if err != nil {
		return BadRequest("decoding request: %v", err)
	}
	*req = *decoded
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeError answers err with its table status; every 503 is
// retryable and says so.
func writeError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// maxBatchQueries bounds one /v1/query batch; beyond it the request is
// rejected outright rather than fanned out.
const maxBatchQueries = 256

// handleQuery serves the unified POST /v1/query endpoint: one query
// inline, or a batch under "queries". The whole request — batch
// included — runs under the single admission ticket the admitted
// wrapper already granted; batch members execute concurrently.
func (c *Core) handleQuery(w http.ResponseWriter, r *http.Request) error {
	tr := obs.TraceFrom(r.Context())
	decodeStart := time.Now()
	var req QueryRequest
	if err := decodeQueryRequest(r, &req); err != nil {
		return err
	}
	tr.AddPhase("decode", time.Since(decodeStart))
	if len(req.Queries) == 0 {
		q, err := req.WireQuery.Query()
		if err != nil {
			return err
		}
		kindStart := time.Now()
		resp, err := c.backend.Query(r.Context(), q)
		if err != nil {
			return err
		}
		c.metrics.observeQuery(q.Kind.String(), time.Since(kindStart))
		writeQueryResponse(w, r, resp)
		return nil
	}

	if len(req.Queries) > maxBatchQueries {
		return BadRequest("batch of %d queries exceeds the %d limit", len(req.Queries), maxBatchQueries)
	}
	// Validate every member before running any: a malformed batch is
	// rejected wholesale, like a malformed single query.
	queries := make([]smartstore.Query, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.Query()
		if err != nil {
			return BadRequest("queries[%d]: %v", i, err)
		}
		queries[i] = q
	}
	// Only a single-query answer carries a trace, so members run without
	// the carrier: no backend collects (or asks its own members for)
	// timings nobody will read.
	ctx := obs.WithoutTrace(r.Context())
	results := make([]QueryResponse, len(queries))
	batchStart := time.Now()
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q smartstore.Query) {
			defer wg.Done()
			resp, err := c.backend.Query(ctx, q)
			if err != nil {
				resp = QueryResponse{Kind: q.Kind.String(), Error: err.Error()}
			}
			results[i] = resp
		}(i, q)
	}
	wg.Wait()
	c.metrics.observeQuery("batch", time.Since(batchStart))
	writeBatchResponse(w, r, BatchQueryResponse{Results: results})
	return nil
}

// writeBatchResponse writes a batch answer in whichever codec the
// request's Accept header negotiated.
func writeBatchResponse(w http.ResponseWriter, r *http.Request, batch BatchQueryResponse) {
	if !wire.Accepts(r.Header.Get("Accept")) {
		writeJSON(w, http.StatusOK, batch)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	// Like writeJSON, a mid-stream write error only means the client
	// went away; the status is already committed.
	wire.EncodeBatchResponse(w, &batch)
}

// writeQueryResponse writes a single-query response in whichever codec
// the request's Accept header negotiated, attaching the inline trace
// when the request carried the trace header.
//
// On the JSON path the encode phase is measured by marshalling the
// response once before the real write — traced requests pay for a
// second marshal; untraced ones take the plain path. On the binary
// path the bulk of the encode (header + id/record chunks) streams
// first and is timed for real; the trace rides in the trailer frame,
// which is built after the phase is stamped, so no double encode.
func writeQueryResponse(w http.ResponseWriter, r *http.Request, resp QueryResponse) {
	tr := obs.TraceFrom(r.Context())
	traced := tr != nil && r.Header.Get(TraceHeader) != ""
	var members []BackendTraceWire
	if resp.Trace != nil {
		members, resp.Trace = resp.Trace.Backends, nil
	}
	if wire.Accepts(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusOK)
		enc := wire.NewResponseEncoder(w)
		encStart := time.Now()
		enc.WriteHeader(resp.Kind)
		enc.WriteIDs(resp.IDs, resp.Dists)
		enc.WriteRecords(resp.Records)
		if traced {
			tr.AddPhase("encode", time.Since(encStart))
			resp.Trace = traceWire(tr, members)
		}
		// Like writeJSON, a mid-stream write error only means the
		// client went away; the status is already committed.
		enc.WriteTrailer(&resp)
		return
	}
	if traced {
		encStart := time.Now()
		if _, err := json.Marshal(resp); err == nil {
			tr.AddPhase("encode", time.Since(encStart))
		}
		resp.Trace = traceWire(tr, members)
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceWire shapes a QueryTrace for the wire: phases in recording
// order with a derived "merge" phase inserted after "execute" (execute
// wall time minus the slowest contributor — a non-pruned shard, or a
// member that answered — which is the fan-out's collect-and-merge
// overhead), and the per-shard and per-member breakdowns alongside.
func traceWire(tr *obs.QueryTrace, members []BackendTraceWire) *TraceWire {
	phases := tr.Phases()
	shards := tr.Shards()
	total := time.Since(tr.Start)
	for _, p := range phases {
		// Start is stamped after admission, so the wait phase is added
		// back in for the true request total.
		if p.Name == "admission_wait" {
			total += p.Dur
		}
	}
	var slowest float64
	for _, sh := range shards {
		if !sh.Pruned {
			slowest = max(slowest, ms(sh.Dur))
		}
	}
	for _, b := range members {
		if !b.Down {
			slowest = max(slowest, b.Ms)
		}
	}
	out := &TraceWire{TotalMs: ms(total), Backends: members}
	for _, p := range phases {
		out.Phases = append(out.Phases, PhaseWire{Name: p.Name, Ms: ms(p.Dur)})
		if p.Name == "execute" && len(shards)+len(members) > 0 {
			out.Phases = append(out.Phases, PhaseWire{Name: "merge", Ms: max(0, ms(p.Dur)-slowest)})
		}
	}
	for _, sh := range shards {
		out.Shards = append(out.Shards, ShardWire{Shard: sh.Shard, Ms: ms(sh.Dur), Pruned: sh.Pruned})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *Core) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req InsertRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Files) == 0 {
		return BadRequest("insert: empty batch")
	}
	resp, err := c.backend.Insert(r.Context(), req.Files)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (c *Core) handleDelete(w http.ResponseWriter, r *http.Request) error {
	var req DeleteRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.ID == 0 {
		return BadRequest("delete: missing id")
	}
	resp, err := c.backend.Delete(r.Context(), req.ID)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (c *Core) handleModify(w http.ResponseWriter, r *http.Request) error {
	var req ModifyRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.File.ID == 0 {
		return BadRequest("modify: missing id")
	}
	resp, err := c.backend.Modify(r.Context(), req.File)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleFlush answers the legacy flush request. Every acknowledged
// write already answers queries, so there is nothing to propagate: the
// reply only reports the current epoch, for clients written against
// the old lazy-replica store.
func (c *Core) handleFlush(w http.ResponseWriter, r *http.Request) error {
	st, err := c.backend.Stats(r.Context())
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, FlushResponse{Epoch: st.Store.Epoch})
	return nil
}

func (c *Core) handleStats(w http.ResponseWriter, r *http.Request) error {
	st, err := c.backend.Stats(r.Context())
	if err != nil {
		return err
	}
	st.Build = c.build
	st.Server.UptimeSec = time.Since(c.start).Seconds()
	st.Server.Requests = c.requests.Load()
	st.Server.Rejected = c.rejected.Load()
	st.Server.Workers = c.cfg.Workers
	st.Server.MaxQueue = c.cfg.MaxQueue
	writeJSON(w, http.StatusOK, st)
	return nil
}

// IDAllocator validates insert batches and hands out fresh file ids
// above every id it has seen. Each Backend owns one, seeded with the
// largest id already stored behind it, and calls Assign holding its
// lock — across the commit too where allocation order must equal
// commit order (without that, an auto-assigned id can lose a race
// against a concurrent explicit use of the same id).
type IDAllocator struct {
	sync.Mutex
	next uint64
}

// NewIDAllocator allocates above max.
func NewIDAllocator(max uint64) *IDAllocator { return &IDAllocator{next: max} }

// Assign validates every record and gives the id-less ones a fresh id,
// in place. The caller holds the lock.
func (a *IDAllocator) Assign(recs []FileRecord) ([]*metadata.File, error) {
	files := make([]*metadata.File, len(recs))
	for i := range recs {
		f, err := recs[i].File()
		if err != nil {
			return nil, BadRequest("insert[%d]: %v", i, err)
		}
		if f.ID == 0 {
			a.next++
			f.ID = a.next
			recs[i].ID = f.ID
		} else if f.ID > a.next {
			// Keep the allocator above explicit ids so later
			// auto-assigned ones cannot collide with them.
			a.next = f.ID
		}
		files[i] = f
	}
	return files, nil
}
