// Package gateway is the scale-out serving layer of the reproduction:
// a thin federating daemon (cmd/smartgate) in front of a static
// membership of N smartstored backends, lifting the engine's
// shard-level semantics to the network. It serves the exact same
// HTTP/JSON wire API as a single smartstored — smartctl, smarteval
// and internal/client work against it unchanged — while queries fan
// out concurrently over the typed client and fold back together with
// the shared exact-merge rules (internal/merge): point and range
// answers union per-backend id lists, top-k answers keep the k
// globally nearest by true normalized distance, so a gateway answer
// over N backends is identical to a single store holding the union of
// their corpora (on-line mode, shared normalizer — see DESIGN.md §9).
//
// Placement is the engine's, one level up, through the same code: at
// bootstrap the gateway reads each backend's placement summary
// (attributes, raw centroid, normalization bounds) from /v1/stats,
// composes federation-wide bounds into one metadata.Normalizer, and
// freezes per-backend centroids in that space. Inserts route to the
// nearest healthy centroid and off-line top-k to the nearest few
// (metadata.NearestCentroid / NearestCentroids, the functions the
// engine routes shards with); deletes and modifies route through a
// lazily learned id → backend index, falling back to a healthy fan-out.
//
// Health checks (Client.Healthy on the /healthz endpoint) drive
// graceful degradation: a down backend is skipped, the answer is
// computed from the healthy members and flagged Partial in the
// response envelope — never a 500 — and the outage is visible in the
// gateway's own /v1/metrics.
package gateway

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metadata"
	"repro/internal/server"
)

// Options parameterizes a Gateway. Backends is required; every other
// zero value selects a default.
type Options struct {
	// Backends is the static membership: one smartstored address
	// ("host:port" or full URL) per backend.
	Backends []string
	// Followers optionally names a replication follower per backend,
	// positionally (empty entries mean "no follower"; shorter than
	// Backends is fine). When a member goes down and its follower
	// reports itself caught up, the health loop promotes the follower
	// and fails the member over to it — answers stay complete instead
	// of degrading to partial. Fail-back is operator-managed.
	Followers []string
	// HealthEvery is the health-check cadence (0 → 2s).
	HealthEvery time.Duration
	// Timeout bounds each backend request attempt (0 → 10s).
	Timeout time.Duration
	// Retries is how many extra attempts an idempotent backend read
	// gets after a transient failure (negative → 0; 0 → 2).
	Retries int
	// RetryBackoff is the initial retry delay, doubling per retry
	// (0 → 25ms).
	RetryBackoff time.Duration
	// Workers bounds concurrently executing requests (0 → 4×GOMAXPROCS
	// — gateway work is network-bound, so it runs wider than a store).
	Workers int
	// MaxQueue bounds requests waiting for a worker slot (0 →
	// 8×Workers).
	MaxQueue int
	// DisableMetrics drops the metrics registry and the /v1/metrics
	// route.
	DisableMetrics bool
	// BootstrapWait bounds how long New retries unreachable backends
	// before giving up (0 → 15s). Every backend must answer its
	// placement once at bootstrap; after that, health checks take over.
	BootstrapWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.HealthEvery <= 0 {
		o.HealthEvery = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.Workers <= 0 {
		o.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 8 * o.Workers
	}
	if o.BootstrapWait <= 0 {
		o.BootstrapWait = 15 * time.Second
	}
	return o
}

// backend is one member of the federation. Its identity (name, idx,
// centroid, metric labels) is fixed at bootstrap; the clients behind
// it can be swapped once by a failover, so every request path goes
// through the client()/tclient() accessors rather than the fields.
type backend struct {
	idx  int
	name string
	// follower is the member's configured replication follower address
	// ("" = none) — the failover target.
	follower string

	// clMu guards the swappable serving identity: cl is the plain
	// client, tcl its trace-propagating copy, active the address they
	// point at (name until a failover, follower after).
	clMu   sync.RWMutex
	cl     *client.Client
	tcl    *client.Client
	active string

	// up flips with health checks and query-time transport failures; a
	// down backend is skipped by fan-outs until a health check brings
	// it back (or fails it over).
	up atomic.Bool
	// failedOver latches once the member has been switched to its
	// follower; there is no automatic fail-back.
	failedOver atomic.Bool
	// centroid is the backend's frozen placement centroid, normalized
	// into the federation-wide bounds — the insert routing target.
	centroid []float64
}

// client returns the member's current plain client.
func (b *backend) client() *client.Client {
	b.clMu.RLock()
	defer b.clMu.RUnlock()
	return b.cl
}

// tclient returns the member's current trace-propagating client.
func (b *backend) tclient() *client.Client {
	b.clMu.RLock()
	defer b.clMu.RUnlock()
	return b.tcl
}

// activeAddr returns the address currently serving this member.
func (b *backend) activeAddr() string {
	b.clMu.RLock()
	defer b.clMu.RUnlock()
	return b.active
}

// swapTo repoints the member at addr with the given client pair — the
// failover commit.
func (b *backend) swapTo(addr string, cl, tcl *client.Client) {
	b.clMu.Lock()
	b.cl, b.tcl, b.active = cl, tcl, addr
	b.clMu.Unlock()
}

// Gateway federates N smartstored backends behind the single-store
// wire API: the shared serving core (server.Core) in front of a
// server.Backend that fans out. It implements http.Handler.
type Gateway struct {
	opts Options
	core *server.Core

	backends []*backend
	// attrs is the placement predicate shared by every backend; norm
	// holds the composed federation-wide normalization bounds over it.
	attrs []metadata.Attr
	norm  *metadata.Normalizer

	// ids allocates above every backend's bootstrap maximum.
	ids *server.IDAllocator

	// assign is the lazily learned id → backend index: inserts record
	// their placement, deletes/modifies learn from fan-out answers.
	// Unknown ids fall back to a healthy fan-out.
	idMu   sync.RWMutex
	assign map[uint64]int

	// clOpts is the client configuration every member client is built
	// with — kept so a failover can build the follower's client
	// identically.
	clOpts client.Options

	// metrics is nil when Options.DisableMetrics is set.
	metrics *gatewayMetrics
}

// ServeHTTP makes the gateway an http.Handler over the §5 routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.core.ServeHTTP(w, r) }

// New builds a gateway over the given membership, reading every
// backend's placement summary (retrying unreachable backends up to
// Options.BootstrapWait) and validating that all backends share one
// placement predicate.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{opts: opts, assign: make(map[uint64]int)}
	g.core = server.NewCore(g, server.CoreConfig{
		Prefix:         "smartgate",
		Workers:        opts.Workers,
		MaxQueue:       opts.MaxQueue,
		DisableMetrics: opts.DisableMetrics,
	})
	if reg := g.core.Registry(); reg != nil {
		g.metrics = newGatewayMetrics(reg, opts.Backends)
	}
	clOpts := client.Options{
		Timeout:      opts.Timeout,
		Retries:      opts.Retries,
		RetryBackoff: opts.RetryBackoff,
		OnRetry: func(string, int, error) {
			if g.metrics != nil {
				g.metrics.clientRetries.Inc()
			}
		},
	}
	g.clOpts = clOpts
	if len(opts.Followers) > len(opts.Backends) {
		return nil, fmt.Errorf("gateway: %d followers for %d backends", len(opts.Followers), len(opts.Backends))
	}
	for i, addr := range opts.Backends {
		b := &backend{idx: i, name: addr, active: addr, cl: client.NewWithOptions(addr, clOpts)}
		b.tcl = b.cl.WithTrace()
		if i < len(opts.Followers) {
			b.follower = opts.Followers[i]
		}
		g.backends = append(g.backends, b)
	}

	// Bootstrap: fetch every backend's placement, compose the
	// federation-wide bounds, and freeze normalized centroids.
	placements := make([]*server.PlacementWire, len(g.backends))
	deadline := time.Now().Add(opts.BootstrapWait)
	for i, b := range g.backends {
		for {
			st, err := b.client().Stats()
			if err == nil {
				if st.Placement == nil {
					return nil, fmt.Errorf("gateway: backend %s reports no placement (not a smartstored?)", b.name)
				}
				placements[i] = st.Placement
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("gateway: backend %s unreachable at bootstrap: %w", b.name, err)
			}
			time.Sleep(200 * time.Millisecond)
		}
		b.up.Store(true)
	}
	if err := g.composePlacement(placements); err != nil {
		return nil, err
	}
	if g.metrics != nil {
		g.registerBackendGauges(g.core.Registry())
	}
	return g, nil
}

// composePlacement validates the shared placement predicate and builds
// the federation-wide normalization plus per-backend centroids.
func (g *Gateway) composePlacement(placements []*server.PlacementWire) error {
	first := placements[0]
	attrs := make([]metadata.Attr, len(first.Attrs))
	for j, name := range first.Attrs {
		a, err := metadata.ParseAttr(name)
		if err != nil {
			return fmt.Errorf("gateway: backend %s placement: %w", g.backends[0].name, err)
		}
		attrs[j] = a
	}
	g.attrs = attrs
	for i, p := range placements[1:] {
		if !slices.Equal(p.Attrs, first.Attrs) {
			return fmt.Errorf("gateway: backend %s placement attrs %v differ from %s's %v",
				g.backends[i+1].name, p.Attrs, g.backends[0].name, first.Attrs)
		}
	}
	// The federation-wide bounds are the widest any member fitted.
	var lo, hi [metadata.NumAttrs]float64
	for j, a := range attrs {
		lo[a], hi[a] = math.Inf(1), math.Inf(-1)
		for _, p := range placements {
			if j < len(p.Lo) {
				lo[a] = min(lo[a], p.Lo[j])
			}
			if j < len(p.Hi) {
				hi[a] = max(hi[a], p.Hi[j])
			}
		}
	}
	g.norm = metadata.RestoreNormalizer(lo, hi, true)
	var maxID uint64
	for i, p := range placements {
		c := make([]float64, len(attrs))
		for j, a := range attrs {
			if j < len(p.Centroid) {
				c[j] = g.norm.Value(a, p.Centroid[j])
			}
		}
		g.backends[i].centroid = c
		maxID = max(maxID, p.MaxFileID)
	}
	g.ids = server.NewIDAllocator(maxID)
	return nil
}

// healthy returns the currently-up members, in membership order.
func (g *Gateway) healthy() []*backend {
	out := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.up.Load() {
			out = append(out, b)
		}
	}
	return out
}

// markDown flips a backend down after a query-time transport failure,
// so subsequent fan-outs skip it immediately instead of timing out
// again; the health loop brings it back when /healthz answers.
func (g *Gateway) markDown(b *backend) {
	if b.up.CompareAndSwap(true, false) {
		if g.metrics != nil {
			g.metrics.healthTransitions.Inc()
		}
	}
}

// Run drives the health loop until ctx is cancelled: every
// Options.HealthEvery, all backends are probed concurrently and their
// up state updated. Transitions count into the metrics registry.
func (g *Gateway) Run(ctx context.Context) {
	ticker := time.NewTicker(g.opts.HealthEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.probeAll()
		}
	}
}

// probeAll health-checks every backend concurrently. A member that
// fails its probe and has a configured follower is failed over: when
// the follower reports itself caught up, the gateway promotes it and
// repoints the member's clients at it, so fan-outs answer complete
// through the follower instead of degrading to partial. The failover
// latches — a leader coming back later does NOT win its slot back
// automatically, because the promoted follower has accepted writes the
// returned leader never saw; fail-back is an operator action
// (DESIGN.md §11).
func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			h := b.client().Healthy()
			if !h && b.follower != "" && !b.failedOver.Load() {
				h = g.maybeFailover(b)
			}
			if b.up.Swap(h) != h && g.metrics != nil {
				g.metrics.healthTransitions.Inc()
			}
		}(b)
	}
	wg.Wait()
}

// maybeFailover tries to fail member b over to its follower, reporting
// whether the member is now serving (through the follower). The
// follower must answer health checks and report itself caught up (or
// already promoted — a previous attempt's promotion may have landed
// without the swap); a behind follower is left alone and the member
// stays degraded — failing over to it would silently drop acknowledged
// writes, which is worse than a partial answer that says so.
func (g *Gateway) maybeFailover(b *backend) bool {
	fcl := client.NewWithOptions(b.follower, g.clOpts)
	st, err := fcl.ReplStatus()
	if err != nil {
		log.Printf("smartgate: backend %s down, follower %s unreachable: %v", b.name, b.follower, err)
		return false
	}
	if !st.CaughtUp && !st.Promoted {
		log.Printf("smartgate: backend %s down, follower %s not caught up — staying degraded", b.name, b.follower)
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.Timeout)
	defer cancel()
	if _, err := fcl.Promote(ctx); err != nil {
		log.Printf("smartgate: backend %s down, promoting follower %s failed: %v", b.name, b.follower, err)
		return false
	}
	b.swapTo(b.follower, fcl, fcl.WithTrace())
	b.failedOver.Store(true)
	if g.metrics != nil {
		g.metrics.failovers.Inc()
	}
	log.Printf("smartgate: backend %s failed over to follower %s (promoted)", b.name, b.follower)
	return true
}

// centroidsOf lists the members' frozen centroids in the given order —
// the candidate set handed to the shared centroid routing, whose
// answers are positions in it.
func centroidsOf(members []*backend) [][]float64 {
	out := make([][]float64, len(members))
	for i, b := range members {
		out[i] = b.centroid
	}
	return out
}

// recordVector normalizes one wire record over the placement predicate;
// an attribute the record does not name stays at 0.
func (g *Gateway) recordVector(rec server.FileRecord) []float64 {
	v := make([]float64, len(g.attrs))
	for j, a := range g.attrs {
		if raw, ok := rec.Attrs[a.String()]; ok {
			v[j] = g.norm.Value(a, raw)
		}
	}
	return v
}

// learn records (or forgets, for idx < 0) one id's owning backend.
func (g *Gateway) learn(id uint64, idx int) {
	g.idMu.Lock()
	if idx < 0 {
		delete(g.assign, id)
	} else {
		g.assign[id] = idx
	}
	g.idMu.Unlock()
}

// owner looks up one id's learned backend, if any.
func (g *Gateway) owner(id uint64) (*backend, bool) {
	g.idMu.RLock()
	idx, ok := g.assign[id]
	g.idMu.RUnlock()
	if !ok || idx >= len(g.backends) {
		return nil, false
	}
	return g.backends[idx], true
}
