package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/semtree"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Op kinds are reported in four classes: the three query kinds, and
// "write" for insert, delete and modify acknowledgements together.
const (
	classPoint = iota
	classRange
	classTopK
	classWrite
	numClasses
)

var classNames = [numClasses]string{"point", "range", "topk", "write"}

func classOf(k trace.OpKind) int {
	switch k {
	case trace.OpPoint:
		return classPoint
	case trace.OpRange:
		return classRange
	case trace.OpTopK:
		return classTopK
	}
	return classWrite
}

// op is one generated operation in the two forms the boundaries take:
// the trace op (engine, cluster and semtree take its query structs) and
// the library query the client, server and store take.
type op struct {
	trace.Op
	q smartstore.Query
}

func (o *op) isRead() bool { return o.Kind <= trace.OpTopK }

func makeOp(t trace.Op, client int) op {
	o := op{Op: t}
	switch t.Kind {
	case trace.OpPoint:
		o.q = smartstore.NewPointQuery(t.Point.Filename)
	case trace.OpRange:
		o.q = smartstore.NewRangeQuery(t.Range.Attrs, t.Range.Lo, t.Range.Hi)
	case trace.OpTopK:
		o.q = smartstore.NewTopKQuery(t.TopK.Attrs, t.TopK.Point, t.TopK.K)
	case trace.OpInsert:
		// Every stream numbers its inserts from one; the client index
		// keeps the paths of two clients apart.
		f := *t.File
		f.Path = fmt.Sprintf("/stream/c%d%s", client, f.Path[len("/stream"):])
		o.File = &f
	}
	return o
}

// opSource yields one client's operations. Generation is deterministic
// in (seed, client) and happens between timed calls, never inside one.
type opSource struct {
	client int
	stream *trace.OpStream
	// read_hot: the fixed pool and its popularity draw.
	pool []op
	zipf *stats.ZipfGen
}

func newOpSource(w *workload, c *corpus, sc scale, seed uint64, clientIdx int) *opSource {
	// Distinct odd multipliers keep the clients' streams, and a stream
	// and its popularity draw, on unrelated seeds.
	s := &opSource{
		client: clientIdx,
		stream: trace.NewOpStream(c.views[clientIdx], w.spec, seed*0x9E3779B97F4A7C15+uint64(clientIdx)+1),
	}
	if w.hot {
		// The pool is data, like the corpus: the same queries in the same
		// popularity order whatever the seed, which drives only the draws.
		// Otherwise which query lands on the hottest rank — a one-id point
		// answer or a thousand-id range — decides the run.
		fixed := trace.NewOpStream(c.views[clientIdx], w.spec, hotPoolSeed+uint64(clientIdx))
		s.pool = make([]op, sc.hotPool)
		for i := range s.pool {
			s.pool[i] = makeOp(fixed.Next(), clientIdx)
		}
		s.zipf = stats.NewZipfGen(stats.NewRNG(seed*0xD1B54A32D192ED03+uint64(clientIdx)), 1.1, len(s.pool))
	}
	return s
}

func (s *opSource) next() op {
	if s.pool != nil {
		return s.pool[s.zipf.Next()]
	}
	return makeOp(s.stream.Next(), s.client)
}

func (s *opSource) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// outcome is what one op returned at one boundary.
type outcome struct {
	ids    []uint64 // answer ids (reads), assigned ids (insert)
	found  bool     // delete/modify verdict
	cached bool
	trace  *wire.TraceWire
	// Work counters where the boundary exposes them.
	messages int64
	stats    semtree.QueryStats
}

// boundary executes ops at one layer's exported surface and reports
// the time spent inside that surface only.
type boundary interface {
	exec(o *op) (outcome, time.Duration, error)
}

// --- A: internal/client over TCP ---

type clientBoundary struct{ cl *client.Client }

func (b clientBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	var err error
	t0 := time.Now()
	switch o.Kind {
	case trace.OpInsert:
		var r *server.InsertResponse
		if r, err = b.cl.Insert([]*smartstore.File{o.File}); err == nil {
			out.ids = r.IDs
		}
	case trace.OpDelete:
		var r *server.MutateResponse
		if r, err = b.cl.Delete(o.ID); err == nil {
			out.found = r.Found
		}
	case trace.OpModify:
		var r *server.MutateResponse
		if r, err = b.cl.Modify(o.File); err == nil {
			out.found = r.Found
		}
	default:
		var r *server.QueryResponse
		if r, err = b.cl.Query(context.Background(), o.q); err == nil {
			if r.Partial {
				err = fmt.Errorf("partial answer")
			}
			out.ids, out.cached, out.trace = r.IDs, r.Cached, r.Trace
		}
	}
	return out, time.Since(t0), err
}

// --- B: the front end's ServeHTTP on a ResponseRecorder ---

type handlerBoundary struct{ h http.Handler }

func (b handlerBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	path, ctype := "/v1/query", wire.ContentType
	var body []byte
	var err error
	switch o.Kind {
	case trace.OpInsert:
		path, ctype = "/v1/insert", "application/json"
		body, err = json.Marshal(server.InsertRequest{Files: []server.FileRecord{server.RecordFromFile(o.File)}})
	case trace.OpDelete:
		path, ctype = "/v1/delete", "application/json"
		body, err = json.Marshal(server.DeleteRequest{ID: o.ID})
	case trace.OpModify:
		path, ctype = "/v1/modify", "application/json"
		body, err = json.Marshal(server.ModifyRequest{File: server.RecordFromFile(o.File)})
	default:
		body, err = wire.EncodeRequest(&server.QueryRequest{WireQuery: server.QueryToWire(o.q)})
	}
	if err != nil {
		return out, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	if o.isRead() {
		req.Header.Set("Accept", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	b.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return out, d, fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	switch o.Kind {
	case trace.OpInsert:
		var r server.InsertResponse
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		out.ids = r.IDs
	case trace.OpDelete, trace.OpModify:
		var r server.MutateResponse
		err = json.Unmarshal(rec.Body.Bytes(), &r)
		out.found = r.Found
	default:
		var r *wire.QueryResponse
		if r, err = wire.DecodeResponseBytes(rec.Body.Bytes()); err == nil {
			out.ids, out.cached, out.trace = r.IDs, r.Cached, r.Trace
		}
	}
	return out, d, err
}

// idAlloc hands out insert ids the way the server does — above the
// store's maximum, in arrival order — so a twin driven below the server
// ends in the same state as one driven through it.
type idAlloc struct{ next uint64 }

// record is what a write op hands a store or an engine directly: a copy
// (they keep the pointer, and the server makes its own from the request
// body), carrying for an insert the id the server would have assigned.
func (a *idAlloc) record(o *op) *smartstore.File {
	if o.File == nil {
		return nil
	}
	cp := *o.File
	if o.Kind == trace.OpInsert {
		a.next++
		cp.ID = a.next
	}
	return &cp
}

// --- C: the root Store ---

type storeBoundary struct {
	s   *smartstore.Store
	ids idAlloc
}

func newStoreBoundary(s *smartstore.Store) *storeBoundary {
	return &storeBoundary{s: s, ids: idAlloc{next: s.MaxFileID()}}
}

func (b *storeBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	var err error
	f := b.ids.record(o)
	t0 := time.Now()
	switch o.Kind {
	case trace.OpInsert:
		_, err = b.s.Insert(f)
		out.ids = []uint64{f.ID}
	case trace.OpDelete:
		_, out.found, err = b.s.Delete(o.ID)
	case trace.OpModify:
		_, out.found, err = b.s.Modify(f)
	default:
		var r smartstore.Result
		r, err = b.s.Do(context.Background(), o.q)
		out.ids = r.IDs
	}
	return out, time.Since(t0), err
}

// --- D: engine.Engine ---

type engineBoundary struct {
	e   *engine.Engine
	ids idAlloc
}

func newEngineBoundary(e *engine.Engine) *engineBoundary {
	return &engineBoundary{e: e, ids: idAlloc{next: e.MaxFileID()}}
}

func (b *engineBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	var err error
	var ans engine.Answer
	ctx := context.Background()
	f := b.ids.record(o)
	t0 := time.Now()
	switch o.Kind {
	case trace.OpPoint:
		ans, err = b.e.Point(ctx, o.Point, engine.QueryOpts{})
	case trace.OpRange:
		ans, err = b.e.Range(ctx, o.Range, engine.QueryOpts{})
	case trace.OpTopK:
		ans, err = b.e.TopK(ctx, o.TopK, engine.QueryOpts{})
	case trace.OpInsert:
		_, err = b.e.InsertBatch([]*smartstore.File{f})
		ans.IDs = []uint64{f.ID}
	case trace.OpDelete:
		_, out.found, err = b.e.Delete(o.ID)
	case trace.OpModify:
		_, out.found, err = b.e.Modify(f)
	}
	out.ids = ans.IDs
	return out, time.Since(t0), err
}

// --- E: cluster.Cluster (read-only) ---

type clusterBoundary struct{ c *cluster.Cluster }

func (b clusterBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	var res cluster.Result
	t0 := time.Now()
	switch o.Kind {
	case trace.OpPoint:
		out.ids, res = b.c.Point(o.Point)
	case trace.OpRange:
		out.ids, res = b.c.RangeOfflineN(o.Range, 0)
	case trace.OpTopK:
		out.ids, res = b.c.TopKOfflineN(o.TopK, 0)
	default:
		return out, 0, fmt.Errorf("cluster boundary is read-only")
	}
	d := time.Since(t0)
	out.messages = res.Messages
	return out, d, nil
}

// --- F: semtree.Tree exact queries (read-only) ---

type treeBoundary struct{ t *semtree.Tree }

func (b treeBoundary) exec(o *op) (outcome, time.Duration, error) {
	var out outcome
	t0 := time.Now()
	switch o.Kind {
	case trace.OpPoint:
		out.ids, out.stats = b.t.PointQuery(o.Point)
	case trace.OpRange:
		out.ids, out.stats = b.t.RangeQuery(o.Range)
	case trace.OpTopK:
		out.ids, out.stats = b.t.TopKQuery(o.TopK)
	default:
		return out, 0, fmt.Errorf("semtree boundary is read-only")
	}
	return out, time.Since(t0), nil
}

// sortedIDs returns a sorted copy: answers are compared as sets.
func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedIDs(a), sortedIDs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
