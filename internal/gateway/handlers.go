package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/metadata"
	"repro/internal/server"
)

// The gateway's failure cases extend the core's status table through
// typed errors: an unservable federation answers 503 and a backend
// failure 502 — never a bare 500, which would read as a gateway bug
// instead of a membership problem.

// errAllDown is returned when no backend can serve a request; 503
// tells clients to retry.
var errAllDown = server.WithStatus(http.StatusServiceUnavailable,
	errors.New("gateway: no healthy backends"))

// errIndeterminate marks a mutation whose target id was not found on
// any healthy backend while part of the membership was unreachable —
// the id may live on a down member, so "not found" would be a lie.
var errIndeterminate = server.WithStatus(http.StatusServiceUnavailable,
	errors.New("gateway: id not found on healthy backends and part of the membership is down"))

// isClientError reports a 4xx reply — the request itself is at fault,
// so the whole gateway request fails instead of degrading.
func isClientError(err error) bool {
	var se *client.StatusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500
}

// rejected passes a backend's 4xx verdict on as the gateway's 400.
func rejected(err error) error { return server.WithStatus(http.StatusBadRequest, err) }

// backendFailed reports backend b failing an operation: 400 when b
// blamed the request, otherwise b is marked down and the answer is 502
// — for a mutation fanned out in groups that names the member to
// reconcile against.
func (g *Gateway) backendFailed(b *backend, op string, err error) error {
	err = fmt.Errorf("%s: backend %s failed: %w", op, b.name, err)
	if isClientError(err) {
		return rejected(err)
	}
	g.markDown(b)
	return server.WithStatus(http.StatusBadGateway, err)
}

// Healthy: the gateway is healthy while it can answer anything at all;
// with every backend down it fails its own probe.
func (g *Gateway) Healthy() bool { return len(g.healthy()) > 0 }

// Insert allocates ids exactly like the store's server, then routes
// each record to the nearest healthy centroid and fans the per-target
// batches out concurrently. The id→backend index learns every placed
// record, so later deletes and modifies go direct.
func (g *Gateway) Insert(ctx context.Context, recs []server.FileRecord) (server.InsertResponse, error) {
	healthy := g.healthy()
	if len(healthy) == 0 {
		return server.InsertResponse{}, errAllDown
	}
	// The members commit concurrently, so allocation order cannot be
	// commit order here: the allocator is held for the assignment only,
	// not across the network round trips.
	g.ids.Lock()
	_, err := g.ids.Assign(recs)
	g.ids.Unlock()
	if err != nil {
		return server.InsertResponse{}, err
	}
	out := server.InsertResponse{Inserted: len(recs), IDs: make([]uint64, len(recs))}
	centroids := centroidsOf(healthy)
	groups := make(map[*backend][]server.FileRecord)
	for i, rec := range recs {
		out.IDs[i] = rec.ID
		b := healthy[metadata.NearestCentroid(centroids, g.recordVector(rec))]
		groups[b] = append(groups[b], rec)
	}

	type placed struct {
		b    *backend
		resp *server.InsertResponse
		err  error
	}
	results := make([]placed, 0, len(groups))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for b, recs := range groups {
		wg.Add(1)
		go func(b *backend, recs []server.FileRecord) {
			defer wg.Done()
			resp, err := b.client().InsertRecords(ctx, recs)
			if err == nil {
				// Learn placements as soon as they are durable on the
				// backend — even if a sibling group fails, these landed.
				for _, rec := range recs {
					g.learn(rec.ID, b.idx)
				}
			}
			mu.Lock()
			results = append(results, placed{b: b, resp: resp, err: err})
			mu.Unlock()
		}(b, recs)
	}
	wg.Wait()

	// Crossing into each member beyond the first charges a hop, as for a
	// query every member answered.
	reports := make([]server.Report, len(results))
	for i, p := range results {
		if p.err != nil {
			// A failed group means the batch is partially applied.
			return server.InsertResponse{}, g.backendFailed(p.b, "insert", p.err)
		}
		out.Epoch += p.resp.Epoch
		reports[i] = p.resp.Report
	}
	out.Report = engine.Compose(reports, len(reports))
	return out, nil
}

// mutate routes one id-addressed mutation: direct to the learned owner
// when known, otherwise fanned out to every healthy backend (at most
// one holds the id — id spaces are disjoint). A not-found verdict with
// part of the membership down is indeterminate, not authoritative.
func (g *Gateway) mutate(ctx context.Context, id uint64, op func(ctx context.Context, b *backend) (*server.MutateResponse, error)) (server.MutateResponse, error) {
	if b, ok := g.owner(id); ok && b.up.Load() {
		resp, err := op(ctx, b)
		if err != nil {
			return server.MutateResponse{}, g.backendFailed(b, "mutation", err)
		}
		if resp.Found {
			return *resp, nil
		}
		// Stale learned placement; forget it and fall through to the
		// fan-out below.
		g.learn(id, -1)
	}

	healthy := g.healthy()
	if len(healthy) == 0 {
		return server.MutateResponse{}, errAllDown
	}
	resps := make([]*server.MutateResponse, len(healthy))
	errs := make([]error, len(healthy))
	var wg sync.WaitGroup
	for i, b := range healthy {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			resps[i], errs[i] = op(ctx, b)
		}(i, b)
	}
	wg.Wait()

	failed := 0
	var out server.MutateResponse
	contributing := 0
	for i, b := range healthy {
		switch err := errs[i]; {
		case err == nil && resps[i].Found:
			out.Found = true
			out.Report = resps[i].Report
			g.learn(id, b.idx)
		case err == nil:
			// Not found here; the epoch still composes below.
		case isClientError(err):
			return server.MutateResponse{}, rejected(err)
		default:
			failed++
			g.markDown(b)
			continue
		}
		out.Epoch += resps[i].Epoch
		contributing++
	}
	if !out.Found && (failed > 0 || len(healthy) < len(g.backends)) {
		return server.MutateResponse{}, errIndeterminate
	}
	if contributing == 0 {
		return server.MutateResponse{}, errAllDown
	}
	return out, nil
}

func (g *Gateway) Delete(ctx context.Context, id uint64) (server.MutateResponse, error) {
	resp, err := g.mutate(ctx, id, func(ctx context.Context, b *backend) (*server.MutateResponse, error) {
		return b.client().DeleteCtx(ctx, id)
	})
	if err == nil && resp.Found {
		g.learn(id, -1)
	}
	return resp, err
}

// Modify forwards the wire record as-is: the owning backend applies
// the partial-attribute merge against its stored vector.
func (g *Gateway) Modify(ctx context.Context, rec server.FileRecord) (server.MutateResponse, error) {
	return g.mutate(ctx, rec.ID, func(ctx context.Context, b *backend) (*server.MutateResponse, error) {
		return b.client().ModifyRecord(ctx, rec)
	})
}

// Stats aggregates the healthy backends' store stats (sums for sizes
// and the composed epoch, max for heights, the unit-weighted mean for
// index bytes per node, as the engine composes shards) and adds the
// gateway's own membership section. Down members appear in the
// membership rows with zeroed stats — the gap is visible, not elided.
func (g *Gateway) Stats(context.Context) (server.StatsResponse, error) {
	stats := make([]*server.StatsResponse, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		if !b.up.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			st, err := b.client().Stats()
			if err != nil {
				g.markDown(b)
				return
			}
			stats[i] = st
		}(i, b)
	}
	wg.Wait()

	out := server.StatsResponse{Gateway: &server.GatewayWire{}}
	weightedBytes := 0
	for i, b := range g.backends {
		row := server.BackendWire{
			Backend:    b.name,
			Healthy:    stats[i] != nil,
			Active:     b.activeAddr(),
			FailedOver: b.failedOver.Load(),
		}
		if st := stats[i]; st != nil {
			row.Files = st.Store.Files
			row.Epoch = st.Store.Epoch
			out.Gateway.Healthy++
			out.Store.Units += st.Store.Units
			out.Store.IndexUnits += st.Store.IndexUnits
			out.Store.Files += st.Store.Files
			out.Store.Trees += st.Store.Trees
			out.Store.IndexBytesTotal += st.Store.IndexBytesTotal
			out.Store.Epoch += st.Store.Epoch
			out.Store.Shards += st.Store.Shards
			out.Store.TreeHeight = max(out.Store.TreeHeight, st.Store.TreeHeight)
			weightedBytes += st.Store.IndexBytesPerNode * st.Store.Units
		}
		out.Gateway.Backends = append(out.Gateway.Backends, row)
	}
	if out.Store.Units > 0 {
		out.Store.IndexBytesPerNode = weightedBytes / out.Store.Units
	}
	return out, nil
}
