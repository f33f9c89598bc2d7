package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrape fetches /v1/metrics and parses it through the validating
// exposition parser, failing the test on any incoherence.
func scrape(t *testing.T, base string) []obs.Family {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /v1/metrics: content type %q", ct)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return fams
}

// metricValue returns the value of the first sample named name in the
// family whose labels include every given key=value pair.
func metricValue(t *testing.T, fams []obs.Family, name string, kv ...string) float64 {
	t.Helper()
	if len(kv)%2 != 0 {
		t.Fatal("metricValue: odd kv list")
	}
	famName := name
	for _, suf := range []string{"_count", "_sum", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			famName = base
		}
	}
	fam := obs.FindFamily(fams, famName)
	if fam == nil {
		t.Fatalf("family %s not exposed", name)
	}
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				ok = false
			}
		}
		if ok {
			return s.Value
		}
	}
	t.Fatalf("family %s: no sample matching %v", name, kv)
	return 0
}

// TestMetricsExposition drives traffic through the server and asserts
// the scrape is valid exposition whose counters reflect that traffic.
func TestMetricsExposition(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})

	for i := 0; i < 3; i++ {
		var qr QueryResponse
		if code := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{WireQuery: WireQuery{Kind: "point", Path: set.Files[i].Path}}, &qr); code != 200 {
			t.Fatalf("query status %d", code)
		}
	}
	var tr QueryResponse
	postQuery(t, ts.URL,
		WireQuery{Kind: "topk", Attrs: defaultNames(), Point: []float64{0, 0, 0}, K: 5}, &tr)

	fams := scrape(t, ts.URL)

	if got := metricValue(t, fams, "smartstore_http_requests_total", "endpoint", "query"); got != 4 {
		t.Fatalf("query endpoint counter = %v, want 4", got)
	}
	// One endpoint carries every kind; the per-kind histogram counts
	// tell them apart.
	if got := metricValue(t, fams, "smartstore_query_duration_seconds_count", "kind", "point"); got != 3 {
		t.Fatalf("point kind count = %v, want 3", got)
	}
	if got := metricValue(t, fams, "smartstore_query_duration_seconds_count", "kind", "topk"); got != 1 {
		t.Fatalf("topk kind count = %v, want 1", got)
	}
	// The fan-out visited or pruned shards for each executed query.
	visited := metricValue(t, fams, "smartstore_shards_visited_total")
	if visited == 0 {
		t.Fatal("shards visited counter is zero after queries")
	}
	if got := metricValue(t, fams, "smartstore_build_info"); got != 1 {
		t.Fatalf("build info = %v, want 1", got)
	}
	// Second scrape: scrape counter advanced, still parses.
	fams2 := scrape(t, ts.URL)
	s1 := metricValue(t, fams, "smartstore_metrics_scrapes_total")
	s2 := metricValue(t, fams2, "smartstore_metrics_scrapes_total")
	if s2 <= s1 {
		t.Fatalf("scrape counter did not advance: %v -> %v", s1, s2)
	}
}

// TestMetricsDisabled verifies DisableMetrics removes the endpoint and
// the hot path tolerates the nil sinks.
func TestMetricsDisabled(t *testing.T) {
	ts, _, set := newTestServer(t, Options{DisableMetrics: true})
	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{WireQuery: WireQuery{Kind: "point", Path: set.Files[0].Path}}, &qr); code != 200 {
		t.Fatalf("query status %d with metrics disabled", code)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics endpoint with DisableMetrics: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceHeader asserts the inline per-phase breakdown round-trips.
func TestTraceHeader(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{CacheEntries: -1})

	body := `{"kind":"range","attrs":["read_bytes"],"lo":[0],"hi":[1e12]}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if qr.Trace.TotalMs <= 0 {
		t.Fatalf("trace total = %v ms", qr.Trace.TotalMs)
	}
	want := map[string]bool{"admission_wait": false, "decode": false, "execute": false, "merge": false, "encode": false}
	for _, p := range qr.Trace.Phases {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
		if p.Ms < 0 {
			t.Fatalf("phase %s has negative duration", p.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("trace missing phase %q (got %+v)", name, qr.Trace.Phases)
		}
	}
	if len(qr.Trace.Shards) == 0 {
		t.Fatal("trace carries no per-shard breakdown")
	}

	// Untraced request must not carry the field.
	var plain QueryResponse
	postJSON(t, ts.URL+"/v1/query",
		QueryRequest{WireQuery: WireQuery{Kind: "range", Attrs: []string{"read_bytes"}, Lo: []float64{0}, Hi: []float64{1e12}}}, &plain)
	if plain.Trace != nil {
		t.Fatal("untraced request returned a trace")
	}
}

// TestStatsBuildInfo asserts /v1/stats carries build identification.
func TestStatsBuildInfo(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Build.GoVersion == "" {
		t.Fatal("stats build info missing go version")
	}
}

// TestReadBuild asserts readBuild names the toolchain the binary runs on.
func TestReadBuild(t *testing.T) {
	if got, want := readBuild().GoVersion, runtime.Version(); got != want {
		t.Fatalf("readBuild().GoVersion = %q, want %q", got, want)
	}
}

// TestMetricsConcurrentScrape scrapes while queries run; under -race
// this exercises the lock-free histogram and registry read paths.
func TestMetricsConcurrentScrape(t *testing.T) {
	ts, _, set := newTestServer(t, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var qr QueryResponse
			postJSON(t, ts.URL+"/v1/query",
				QueryRequest{WireQuery: WireQuery{Kind: "point", Path: set.Files[i%len(set.Files)].Path}}, &qr)
		}
	}()
	for i := 0; i < 10; i++ {
		scrape(t, ts.URL)
	}
	<-done
	scrape(t, ts.URL)
}
