package gateway

import (
	"context"
	"sync"
	"time"

	smartstore "repro"
	"repro/internal/engine"
	"repro/internal/merge"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/server"
)

// backendAnswer is one backend's contribution to a fanned-out query.
type backendAnswer struct {
	b    *backend
	resp *server.QueryResponse
	err  error
	dur  time.Duration
}

// Query runs one validated query across the federation: fan out to the
// relevant healthy backends, merge exactly, degrade gracefully. On a
// traced request the fan-out is the execute phase, every member is
// asked for its own trace, and the answer carries one row per member.
func (g *Gateway) Query(ctx context.Context, q smartstore.Query) (server.QueryResponse, error) {
	tr := obs.TraceFrom(ctx)
	traced := tr != nil
	execStart := time.Now()
	healthy := g.healthy()
	down := len(g.backends) - len(healthy)
	if g.metrics != nil && down > 0 {
		g.metrics.backendsDown.Add(uint64(down))
	}
	if len(healthy) == 0 {
		return server.QueryResponse{}, errAllDown
	}

	// Off-line top-k routes to the healthy backends whose placement
	// centroids are most correlated with the query point, under the
	// shared fan-out cap. Every other path is a full healthy fan-out
	// (exactness needs every member's answer).
	targets := healthy
	if q.Kind == smartstore.KindTopK && q.Options.Mode == smartstore.ModeOffline && len(healthy) > 1 {
		nearest := metadata.NearestCentroids(g.norm, g.attrs, centroidsOf(healthy),
			q.Attrs, q.Point, metadata.OfflineFanout(len(healthy), 0))
		targets = make([]*backend, len(nearest))
		for i, pos := range nearest {
			targets[i] = healthy[pos]
		}
	}
	if g.metrics != nil {
		g.metrics.backendsVisited.Add(uint64(len(targets)))
		g.metrics.backendsPruned.Add(uint64(len(healthy) - len(targets)))
	}

	// The forwarded form: top-k needs every backend's local top k with
	// true distances — a per-backend limit could cut candidates the
	// global merge keeps, so the limit is applied after the merge.
	fq := q
	if q.Kind == smartstore.KindTopK {
		fq.Options.IncludeDists = true
		fq.Options.Limit = 0
	}

	answers := make([]backendAnswer, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			cl := b.client()
			if traced {
				cl = b.tclient()
			}
			start := time.Now()
			resp, err := cl.Query(ctx, fq)
			answers[i] = backendAnswer{b: b, resp: resp, err: err, dur: time.Since(start)}
			if g.metrics != nil {
				g.metrics.observeBackendQuery(b.name, answers[i].dur)
			}
		}(i, b)
	}
	wg.Wait()

	var ok []backendAnswer
	failed := 0
	for _, a := range answers {
		switch {
		case a.err == nil:
			ok = append(ok, a)
		case isClientError(a.err):
			// The backend rejected the query itself — our forwarding or
			// the client's query is malformed; degradation doesn't apply.
			return server.QueryResponse{}, rejected(a.err)
		default:
			// Transport failure or backend pressure after retries: treat
			// the member as down for subsequent fan-outs and degrade.
			failed++
			g.markDown(a.b)
			if g.metrics != nil {
				g.metrics.backendsDown.Add(1)
			}
		}
	}
	if len(ok) == 0 {
		return server.QueryResponse{}, errAllDown
	}

	resp := g.mergeAnswers(q, ok)
	resp.Partial = down > 0 || failed > 0
	if resp.Partial && g.metrics != nil {
		g.metrics.partialResponses.Inc()
	}

	tr.AddPhase("execute", time.Since(execStart))
	if traced {
		traces := make([]server.BackendTraceWire, 0, len(g.backends))
		for _, a := range answers {
			bt := server.BackendTraceWire{Backend: a.b.name, Ms: float64(a.dur) / float64(time.Millisecond), Down: a.err != nil && !isClientError(a.err)}
			if a.resp != nil {
				bt.Trace = a.resp.Trace
			}
			traces = append(traces, bt)
		}
		for _, b := range g.backends {
			if !containsBackend(answers, b) {
				traces = append(traces, server.BackendTraceWire{Backend: b.name, Down: true})
			}
		}
		resp.Trace = &server.TraceWire{Backends: traces}
	}
	return resp, nil
}

func containsBackend(answers []backendAnswer, b *backend) bool {
	for _, a := range answers {
		if a.b == b {
			return true
		}
	}
	return false
}

// mergeAnswers folds the per-backend answers with the shared exact
// rules: union for point/range, (dist,id)-ordered bounded-heap top-k,
// and engine.Compose for the report.
func (g *Gateway) mergeAnswers(q smartstore.Query, ok []backendAnswer) server.QueryResponse {
	out := server.QueryResponse{Kind: q.Kind.String()}

	var ids []uint64
	var dists []float64
	switch q.Kind {
	case smartstore.KindTopK:
		idLists := make([][]uint64, len(ok))
		distLists := make([][]float64, len(ok))
		for i, a := range ok {
			idLists[i], distLists[i] = a.resp.IDs, a.resp.Dists
		}
		ids, dists = merge.TopKAligned(idLists, distLists, q.K)
	default:
		lists := make([][]uint64, len(ok))
		for i, a := range ok {
			lists[i] = a.resp.IDs
		}
		var dups int
		ids, dups = merge.Union(lists)
		if dups > 0 && g.metrics != nil {
			// Two backends claiming one id means the id spaces overlap —
			// a misprovisioned federation; surfaced, not double-counted.
			g.metrics.duplicateIDs.Add(uint64(dups))
		}
		for _, a := range ok {
			if a.resp.Truncated {
				out.Truncated = true
			}
		}
	}

	if q.Options.Limit > 0 && len(ids) > q.Options.Limit {
		ids = ids[:q.Options.Limit]
		if dists != nil {
			dists = dists[:q.Options.Limit]
		}
		out.Truncated = true
	}
	out.IDs = ids
	out.Count = len(ids)
	if q.Options.IncludeDists && q.Kind == smartstore.KindTopK {
		out.Dists = dists
	}

	if q.Options.IncludeRecords {
		recs := make(map[uint64]server.FileRecord)
		for _, a := range ok {
			for _, r := range a.resp.Records {
				if _, dup := recs[r.ID]; !dup {
					recs[r.ID] = r
				}
			}
		}
		out.Records = make([]server.FileRecord, 0, len(ids))
		for _, id := range ids {
			if r, found := recs[id]; found {
				out.Records = append(out.Records, r)
			}
		}
	}

	reports := make([]server.Report, len(ok))
	contributing := 0
	for i, a := range ok {
		if len(a.resp.IDs) > 0 {
			contributing++
		}
		reports[i] = a.resp.Report
	}
	out.Report = engine.Compose(reports, contributing)
	return out
}
