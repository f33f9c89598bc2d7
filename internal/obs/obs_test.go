package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

// TestBucketBoundaries pins the index function to the documented edge
// rule: bucket i holds bounds[i-1] < v <= bounds[i], √2 growth.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0},
		{2, 1},         // bounds[0]=√2 < 2 ≤ bounds[1]=2
		{3, 3},         // bounds[2]=2√2≈2.83 < 3 ≤ bounds[3]=4
		{4, 3},         // exactly on an edge stays inside it
		{5, 4},         // 4 < 5 ≤ 4√2≈5.66
		{1024, 19},     // 2^10 = bounds[19]
		{1025, 20},     // just past a power-of-two edge
		{1 << 62, 123}, // 2^62 = bounds[123]
		{math.MaxUint64, HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// The invariant must hold for a dense sweep around every edge.
	for i := 0; i < HistBuckets-1; i++ {
		edge := BucketBound(i)
		for _, v := range []float64{edge - 1, edge, edge + 1} {
			if v < 1 {
				continue
			}
			u := uint64(v)
			idx := bucketIndex(u)
			if idx > 0 && float64(u) <= BucketBound(idx-1) {
				t.Fatalf("v=%d landed in bucket %d but is below its lower edge %g", u, idx, BucketBound(idx-1))
			}
			if idx < HistBuckets-1 && float64(u) > BucketBound(idx) {
				t.Fatalf("v=%d landed in bucket %d but exceeds its upper edge %g", u, idx, BucketBound(idx))
			}
		}
	}
}

// scrapedQuantile exposes h, parses the exposition back and extracts
// its p-quantile, in recorded units.
func scrapedQuantile(t *testing.T, h *Histogram, p float64) float64 {
	t.Helper()
	reg := NewRegistry()
	reg.RegisterHistogram("t_q", "", "quantile", 1, h)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var buckets []Sample
	for _, s := range FindFamily(fams, "t_q").Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			buckets = append(buckets, s)
		}
	}
	return BucketQuantile(buckets, p)
}

// TestQuantileAccuracy checks scraped quantiles stay within one bucket
// ratio (√2) of the true value on a known distribution.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..10000: true p50=5000, p95=9500, p99=9900.
	for v := uint64(1); v <= 10000; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900},
	} {
		got := scrapedQuantile(t, &h, tc.p)
		ratio := got / tc.want
		if ratio < 1/math.Sqrt2 || ratio > math.Sqrt2 {
			t.Errorf("p%v = %g, want within √2 of %g", tc.p*100, got, tc.want)
		}
	}
	if got := scrapedQuantile(t, &Histogram{}, 0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	// A single-valued distribution must come back inside its bucket.
	var h2 Histogram
	for i := 0; i < 100; i++ {
		h2.Observe(1000)
	}
	got := scrapedQuantile(t, &h2, 0.99)
	if got < 1000/math.Sqrt2 || got > 1000*math.Sqrt2 {
		t.Errorf("point-mass p99 = %g, want within √2 of 1000", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// while a reader snapshots and a writer renders exposition — the -race
// gate for the lock-free core.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	reg := NewRegistry()
	reg.RegisterHistogram("t_conc_ns", "", "concurrent test", ScaleNanos, &h)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
				t.Errorf("mid-load exposition invalid: %v", err)
				return
			}
			h.Snapshot()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			v := seed*2654435761 + 1
			for i := 0; i < perWriter; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(v >> 40)
			}
		}(uint64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != writers*perWriter {
		t.Fatalf("bucket total = %d, want %d", total, writers*perWriter)
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.RegisterCounter("t_requests_total", Labels("endpoint", "query"), "requests", &c)
	reg.RegisterCounterFunc("t_requests_total", Labels("endpoint", "insert"), "requests", func() float64 { return 5 })
	reg.RegisterGaugeFunc("t_inflight", "", "inflight", func() float64 { return -2 })
	reg.RegisterGaugeFunc("t_uptime_seconds", "", "uptime", func() float64 { return 1.5 })
	var h Histogram
	h.Observe(1000)
	h.Observe(2000)
	reg.RegisterHistogram("t_latency_seconds", "", "latency", ScaleNanos, &h)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4\n%s", len(fams), text)
	}
	req := FindFamily(fams, "t_requests_total")
	if req == nil || req.Type != "counter" || len(req.Samples) != 2 {
		t.Fatalf("t_requests_total parsed wrong: %+v", req)
	}
	for _, s := range req.Samples {
		switch s.Labels["endpoint"] {
		case "query":
			if s.Value != 3 {
				t.Errorf("query counter = %v, want 3", s.Value)
			}
		case "insert":
			if s.Value != 5 {
				t.Errorf("insert counter = %v, want 5", s.Value)
			}
		default:
			t.Errorf("unexpected labels %v", s.Labels)
		}
	}
	lat := FindFamily(fams, "t_latency_seconds")
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("t_latency_seconds missing: %+v", lat)
	}
	var buckets []Sample
	var count, sum float64
	for _, s := range lat.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets = append(buckets, s)
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		}
	}
	if count != 2 {
		t.Errorf("count = %v, want 2", count)
	}
	if math.Abs(sum-3e-6) > 1e-12 {
		t.Errorf("sum = %v, want 3e-6", sum)
	}
	q := BucketQuantile(buckets, 0.5)
	if q < 1e-6/math.Sqrt2 || q > 1e-6*math.Sqrt2*math.Sqrt2 {
		t.Errorf("scraped p50 = %v, want ~1-2µs", q)
	}
}

func TestParsePrometheusRejectsIncoherent(t *testing.T) {
	bad := []string{
		// sample without TYPE
		"no_type_metric 1\n",
		// non-cumulative buckets
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		// missing +Inf
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		// _count disagrees with +Inf
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		// garbage value
		"# TYPE c counter\nc abc\n",
	}
	for _, text := range bad {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("expected parse error for %q", text)
		}
	}
	ok := "# HELP c help text\n# TYPE c counter\nc{a=\"x,y\",b=\"z\"} 12 1700000000\n"
	fams, err := ParsePrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if fams[0].Samples[0].Labels["a"] != "x,y" {
		t.Errorf("label with comma parsed wrong: %v", fams[0].Samples[0].Labels)
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("shard", "0", "op", "insert"); got != `op="insert",shard="0"` {
		t.Fatalf("Labels = %q", got)
	}
	if got := Labels("k", "a\"b\\c\nd"); got != `k="a\"b\\c\nd"` {
		t.Fatalf("escaped Labels = %q", got)
	}
}

func TestQueryTrace(t *testing.T) {
	var nilTrace *QueryTrace
	nilTrace.AddPhase("x", time.Second) // must not panic
	nilTrace.AddShard(0, time.Second, false)
	if nilTrace.String() != "" {
		t.Fatal("nil trace should render empty")
	}

	ctx, tr := WithTrace(context.Background())
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not round-trip")
	}
	tr.AddPhase("admission_wait", 10*time.Microsecond)
	tr.AddPhase("execute", 3*time.Millisecond)
	tr.AddShard(0, 3*time.Millisecond, false)
	tr.AddShard(1, 0, true)
	s := tr.String()
	for _, want := range []string{"admission_wait=10µs", "execute=3ms", "shard0=3ms", "shard1=pruned"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace %q missing %q", s, want)
		}
	}
	if n := len(tr.Phases()); n != 2 {
		t.Errorf("phases = %d, want 2", n)
	}
	if n := len(tr.Shards()); n != 2 {
		t.Errorf("shards = %d, want 2", n)
	}
}
