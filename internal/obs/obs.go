// Package obs is the dependency-free observability core of the serving
// stack: atomic counters, lock-free fixed-bucket log-scale histograms,
// a Prometheus-text-format registry (registry.go), a minimal exposition
// parser with scrape-side quantile extraction shared by the CLIs
// (promtext.go), and the per-request trace carrier the server and
// engine use to attribute wall time to phases (trace.go).
//
// Everything here is stdlib-only and safe for concurrent use. The hot
// path — Counter.Add, Histogram.Observe — is a handful of atomic
// operations with no locks and no allocation, so instrumenting a
// per-request or per-append code path costs nanoseconds; the overhead
// budget of the whole layer is ≤3% on served-query p95 (DESIGN.md §8).
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: two
// sub-buckets per power of two (a √2 growth factor), covering the whole
// uint64 range. The relative quantile error is bounded by the bucket
// ratio: at worst ~±21% of the true value, tight enough to gate p95
// regressions while keeping Observe a single array increment.
const HistBuckets = 128

// histBounds[i] is bucket i's inclusive upper edge: 2^((i+1)/2). A
// value v lands in the first bucket whose edge is ≥ v; the final bucket
// is the overflow (+Inf) bucket.
var histBounds = func() [HistBuckets]float64 {
	var b [HistBuckets]float64
	for i := range b {
		b[i] = math.Exp2(float64(i+1) / 2)
	}
	return b
}()

// BucketBound returns bucket i's inclusive upper edge in recorded
// units. The final bucket is unbounded (+Inf); its nominal edge is
// returned for interpolation.
func BucketBound(i int) float64 { return histBounds[i] }

// bucketIndex maps a recorded value to its bucket. Values ≤ 1 land in
// bucket 0.
func bucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	f := float64(v)
	idx := int(math.Ceil(2 * math.Log2(f)))
	idx-- // bounds[i] = 2^((i+1)/2)
	if idx < 0 {
		idx = 0
	}
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	// Float rounding near an edge can land one bucket off; restore the
	// invariant bounds[idx-1] < v ≤ bounds[idx] with at most one step.
	for idx > 0 && histBounds[idx-1] >= f {
		idx--
	}
	for idx < HistBuckets-1 && histBounds[idx] < f {
		idx++
	}
	return idx
}

// Histogram is a lock-free fixed-bucket log-scale histogram over
// uint64 observations (nanoseconds for latencies, plain counts for
// sizes — the unit is the caller's; the registry applies a scale at
// exposition). Observe is wait-free: one atomic increment per bucket
// plus the running count and sum.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram's state. The
// copy is not atomic across buckets — concurrent observations may
// straddle it — but every bucket is individually consistent and the
// drift is bounded by the records in flight during the read.
type HistSnapshot struct {
	Counts [HistBuckets]uint64 // per-bucket observation counts
	Count  uint64              // total observations
	Sum    uint64              // sum of observed values
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}
