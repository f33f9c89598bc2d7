package gateway

import (
	"time"

	"repro/internal/obs"
)

// gatewayMetrics is the federation-specific share of the gateway's
// /v1/metrics; the serving families (endpoints, admission, per-kind
// query durations) are the core's, under the same smartgate_ prefix.
type gatewayMetrics struct {
	backendDur map[string]*obs.Histogram

	backendsVisited   obs.Counter
	backendsPruned    obs.Counter
	backendsDown      obs.Counter
	partialResponses  obs.Counter
	clientRetries     obs.Counter
	duplicateIDs      obs.Counter
	healthTransitions obs.Counter
	failovers         obs.Counter
}

// newGatewayMetrics registers the federation families on the core's
// registry.
func newGatewayMetrics(reg *obs.Registry, backendNames []string) *gatewayMetrics {
	m := &gatewayMetrics{backendDur: make(map[string]*obs.Histogram, len(backendNames))}
	for _, name := range backendNames {
		h := &obs.Histogram{}
		m.backendDur[name] = h
		reg.RegisterHistogram("smartgate_backend_query_duration_seconds",
			obs.Labels("backend", name),
			"Per-backend wall time of fanned-out query requests, retries included.",
			obs.ScaleNanos, h)
	}
	reg.RegisterCounter("smartgate_backends_visited_total", "",
		"Backends a query fan-out was sent to.", &m.backendsVisited)
	reg.RegisterCounter("smartgate_backends_pruned_total", "",
		"Healthy backends skipped by placement-correlated routing.", &m.backendsPruned)
	reg.RegisterCounter("smartgate_backends_down_total", "",
		"Down backends skipped (or newly failed) during query fan-outs.", &m.backendsDown)
	reg.RegisterCounter("smartgate_partial_responses_total", "",
		"Query responses flagged partial because a member was down or failed.", &m.partialResponses)
	reg.RegisterCounter("smartgate_client_retries_total", "",
		"Idempotent backend requests retried after a transient failure.", &m.clientRetries)
	reg.RegisterCounter("smartgate_duplicate_ids_total", "",
		"Ids claimed by more than one backend in a union merge (overlapping id spaces).", &m.duplicateIDs)
	reg.RegisterCounter("smartgate_health_transitions_total", "",
		"Backend up/down state flips (health probes and query-time failures).", &m.healthTransitions)
	reg.RegisterCounter("smartgate_failovers_total", "",
		"Members failed over to their promoted follower.", &m.failovers)
	return m
}

// registerBackendGauges adds the per-backend up gauge and the healthy
// count; called after bootstrap, once the backend slice is final.
func (g *Gateway) registerBackendGauges(reg *obs.Registry) {
	for _, b := range g.backends {
		b := b
		reg.RegisterGaugeFunc("smartgate_backend_up",
			obs.Labels("backend", b.name),
			"Whether the backend currently passes health checks (1) or is skipped (0).",
			func() float64 {
				if b.up.Load() {
					return 1
				}
				return 0
			})
		reg.RegisterGaugeFunc("smartgate_backend_failed_over",
			obs.Labels("backend", b.name),
			"Whether the member is being served by its promoted follower (1) instead of its original leader (0).",
			func() float64 {
				if b.failedOver.Load() {
					return 1
				}
				return 0
			})
	}
	reg.RegisterGaugeFunc("smartgate_backends_healthy", "",
		"Backends currently passing health checks.",
		func() float64 { return float64(len(g.healthy())) })
}

// observeBackendQuery feeds one backend's fan-out latency histogram.
func (m *gatewayMetrics) observeBackendQuery(backend string, d time.Duration) {
	if m == nil {
		return
	}
	if h := m.backendDur[backend]; h != nil {
		h.Observe(uint64(d))
	}
}
