package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// TraceHeader is the request header that asks for an inline per-phase
// timing breakdown: any non-empty value makes the query response carry
// a Trace object (wire.go) with the admission wait, cache lookup,
// per-shard execution, derived merge time and encode time of the
// request.
const TraceHeader = "X-Smartstore-Trace"

// queryKinds labels the per-kind query duration family. "batch" covers
// a whole multi-query request.
var queryKinds = []string{"point", "range", "topk", "batch"}

// endpointMetrics is one endpoint's counter + latency histogram.
type endpointMetrics struct {
	requests obs.Counter
	dur      obs.Histogram
}

// coreMetrics owns a front-end's registry and the families the Core
// feeds, named under CoreConfig.Prefix. A nil *coreMetrics
// (CoreConfig.DisableMetrics) turns every record call into a nil check.
type coreMetrics struct {
	reg           *obs.Registry
	prefix        string
	queryDur      map[string]*obs.Histogram
	admissionWait obs.Histogram
	scrapes       obs.Counter
}

// newCoreMetrics builds the registry and registers the serving-level
// families; per-endpoint series are added as routes are (endpoint), so
// each exists from the first scrape with a zero value and dashboards
// never see series pop into existence.
func newCoreMetrics(c *Core) *coreMetrics {
	m := &coreMetrics{
		reg:      obs.NewRegistry(),
		prefix:   c.cfg.Prefix,
		queryDur: make(map[string]*obs.Histogram, len(queryKinds)),
	}
	for _, kind := range queryKinds {
		h := &obs.Histogram{}
		m.queryDur[kind] = h
		m.reg.RegisterHistogram(m.prefix+"_query_duration_seconds",
			obs.Labels("kind", kind),
			"Query execution time by kind (cache and fan-out included); \"batch\" is a whole multi-query request.",
			obs.ScaleNanos, h)
	}
	m.reg.RegisterHistogram(m.prefix+"_admission_wait_seconds", "",
		"Time admitted requests spent waiting for a worker slot.",
		obs.ScaleNanos, &m.admissionWait)
	m.reg.RegisterCounterFunc(m.prefix+"_requests_rejected_total", "",
		"Requests shed by admission control (queue overflow or client gone).",
		func() float64 { return float64(c.rejected.Load()) })
	m.reg.RegisterGaugeFunc(m.prefix+"_inflight_requests", "",
		"Requests currently admitted or waiting for a worker slot.",
		func() float64 { return float64(c.inflight.Load()) })
	m.reg.RegisterGaugeFunc(m.prefix+"_uptime_seconds", "",
		"Seconds since the process started serving.",
		func() float64 { return time.Since(c.start).Seconds() })
	m.reg.RegisterCounter(m.prefix+"_metrics_scrapes_total", "",
		"Scrapes of /v1/metrics.", &m.scrapes)
	m.reg.RegisterGaugeFunc(m.prefix+"_build_info",
		obs.Labels("go_version", c.build.GoVersion, "version", c.build.Version),
		"Build information; the value is always 1.",
		func() float64 { return 1 })
	return m
}

// endpoint registers one endpoint's request counter and latency
// histogram.
func (m *coreMetrics) endpoint(name string) *endpointMetrics {
	if m == nil {
		return nil
	}
	em := &endpointMetrics{}
	m.reg.RegisterCounter(m.prefix+"_http_requests_total",
		obs.Labels("endpoint", name),
		"HTTP requests received per endpoint (admitted or not).", &em.requests)
	m.reg.RegisterHistogram(m.prefix+"_http_request_duration_seconds",
		obs.Labels("endpoint", name),
		"Wall time of admitted requests per endpoint, admission wait included.",
		obs.ScaleNanos, &em.dur)
	return em
}

func (em *endpointMetrics) observeRequest() {
	if em != nil {
		em.requests.Inc()
	}
}

func (em *endpointMetrics) observeDuration(d time.Duration) {
	if em != nil {
		em.dur.Observe(uint64(d))
	}
}

// observeAdmissionWait feeds the worker-slot wait histogram.
func (m *coreMetrics) observeAdmissionWait(d time.Duration) {
	if m != nil {
		m.admissionWait.Observe(uint64(d))
	}
}

// observeQuery feeds the per-kind query duration histogram.
func (m *coreMetrics) observeQuery(kind string, d time.Duration) {
	if m != nil {
		m.queryDur[kind].Observe(uint64(d))
	}
}

// handleMetrics serves GET /v1/metrics. It bypasses admission control
// deliberately: a scrape during overload is exactly when the metrics
// matter, and exposition cost is bounded by the registered series, not
// by request volume.
func (c *Core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.metrics.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.metrics.reg.WritePrometheus(w)
}
