package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	smartstore "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// parityFrontEnds builds the two front-ends of the one serving core —
// a server over a store, and a gateway over two in-process backends —
// each with one worker and a one-deep queue.
func parityFrontEnds(t *testing.T) map[string]http.Handler {
	t.Helper()
	build := func(seed uint64) *smartstore.Store {
		set, err := smartstore.GenerateTrace("MSN", 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := smartstore.Build(set.Files, smartstore.Config{Units: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var urls []string
	for _, seed := range []uint64{5, 6} {
		ts := httptest.NewServer(server.New(build(seed), server.Options{}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Options{Backends: urls, Workers: 1, MaxQueue: 1, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]http.Handler{
		"server":  server.New(build(7), server.Options{Workers: 1, MaxQueue: 1}),
		"gateway": gw,
	}
}

// reply is what a front-end answered, reduced to what parity compares.
type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        string
}

func serve(h http.Handler, req *http.Request) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.String()}
}

// assertErrorShape checks a core-written refusal: a JSON object with
// exactly one member, a non-empty "error".
func assertErrorShape(t *testing.T, label string, r reply) {
	t.Helper()
	var obj map[string]string
	if err := json.Unmarshal([]byte(r.body), &obj); err != nil || len(obj) != 1 || obj["error"] == "" {
		t.Errorf("%s: body %q is not {\"error\":...}", label, r.body)
	}
}

// TestFrontEndParity drives every way the serving core refuses a
// request through both front-ends. Each refusal is the core's, made
// before (or instead of) asking the backend, so the two answers must
// be identical down to the body.
func TestFrontEndParity(t *testing.T) {
	fronts := parityFrontEnds(t)

	frame, err := wire.EncodeRequest(&server.QueryRequest{WireQuery: server.WireQuery{Kind: "point", Path: "/x"}})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), frame...)
	badCRC[9] ^= 0xA5
	oversize := server.QueryRequest{Queries: make([]server.WireQuery, 257)}
	for i := range oversize.Queries {
		oversize.Queries[i] = server.WireQuery{Kind: "point", Path: "/x"}
	}
	asJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name, method, path, contentType string
		body                            []byte
		want                            int
	}{
		{"malformed JSON", "POST", "/v1/query", "application/json", []byte(`{"kind":`), 400},
		{"binary frame, bad CRC", "POST", "/v1/query", wire.ContentType, badCRC, 400},
		{"binary frame, short payload", "POST", "/v1/query", wire.ContentType, frame[:6], 400},
		{"oversize batch", "POST", "/v1/query", "application/json", asJSON(oversize), 400},
		{"unknown attr", "POST", "/v1/query", "application/json",
			asJSON(server.WireQuery{Kind: "range", Attrs: []string{"nonsense"}, Lo: []float64{0}, Hi: []float64{1}}), 400},
		{"k=0", "POST", "/v1/query", "application/json",
			asJSON(server.WireQuery{Kind: "topk", Attrs: []string{"mtime"}, Point: []float64{0}}), 400},
		{"empty insert", "POST", "/v1/insert", "application/json", asJSON(server.InsertRequest{}), 400},
		{"delete without id", "POST", "/v1/delete", "application/json", asJSON(server.DeleteRequest{}), 400},
		{"modify without id", "POST", "/v1/modify", "application/json", asJSON(server.ModifyRequest{}), 400},
		{"wrong method", "GET", "/v1/query", "", nil, 405},
		{"retired per-kind route", "POST", "/v1/query/point", "application/json", []byte(`{"path":"/x"}`), 404},
	}
	for _, tc := range cases {
		got := map[string]reply{}
		for name, h := range fronts {
			req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			r := serve(h, req)
			if r.status != tc.want {
				t.Errorf("%s via %s: status %d, want %d", tc.name, name, r.status, tc.want)
			}
			if tc.want == 400 {
				assertErrorShape(t, tc.name+" via "+name, r)
			}
			got[name] = r
		}
		if got["server"] != got["gateway"] {
			t.Errorf("%s: front-ends disagree:\n server  %+v\n gateway %+v", tc.name, got["server"], got["gateway"])
		}
	}

	for name, h := range fronts {
		t.Run("admission via "+name, func(t *testing.T) { admissionParity(t, h) })
	}
}

// inflight scrapes the front-end's admitted-or-waiting gauge;
// /v1/metrics bypasses admission, so it answers while saturated.
func inflight(t *testing.T, h http.Handler) float64 {
	t.Helper()
	r := serve(h, httptest.NewRequest("GET", "/v1/metrics", nil))
	fams, err := obs.ParsePrometheus(strings.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if strings.HasSuffix(f.Name, "_inflight_requests") {
			return f.Samples[0].Value
		}
	}
	t.Fatal("no inflight gauge exposed")
	return 0
}

// admissionParity saturates a one-worker, one-deep front-end: request A
// holds the worker (its body stalls mid-decode), B waits in the queue,
// so C overflows (503 + Retry-After) and B, once its client goes away,
// answers 499.
func admissionParity(t *testing.T, h http.Handler) {
	query := `{"kind":"point","path":"/x"}`
	pr, pw := io.Pipe()
	aDone := make(chan reply, 1)
	go func() { aDone <- serve(h, httptest.NewRequest("POST", "/v1/query", pr)) }()
	// The pipe write returns once the handler reads the body, which it
	// does only after admission: A now holds the worker slot.
	if _, err := pw.Write([]byte(query[:1])); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan reply, 1)
	go func() {
		bDone <- serve(h, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)).WithContext(ctx))
	}()
	for deadline := time.Now().Add(5 * time.Second); inflight(t, h) != 2; {
		if time.Now().After(deadline) {
			t.Fatal("B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	c := serve(h, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)))
	if c.status != http.StatusServiceUnavailable || c.retryAfter == "" {
		t.Errorf("queue overflow: status %d Retry-After %q, want 503 with Retry-After", c.status, c.retryAfter)
	}
	assertErrorShape(t, "queue overflow", c)

	cancel()
	b := <-bDone
	if b.status != 499 {
		t.Errorf("client gone while queued: status %d, want 499", b.status)
	}
	assertErrorShape(t, "client gone while queued", b)

	fmt.Fprint(pw, query[1:])
	pw.Close()
	if a := <-aDone; a.status != http.StatusOK {
		t.Errorf("the request holding the worker: status %d, want 200", a.status)
	}
}

// TestFrontEndMetricsParity: the families the core feeds appear under
// both prefixes with the same suffix, type, HELP text and series.
func TestFrontEndMetricsParity(t *testing.T) {
	fronts := parityFrontEnds(t)
	type family struct {
		help, typ string
		series    map[string]bool
	}
	scrape := func(h http.Handler, prefix string) map[string]family {
		r := serve(h, httptest.NewRequest("GET", "/v1/metrics", nil))
		fams, err := obs.ParsePrometheus(strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]family{}
		for _, f := range fams {
			suffix, ok := strings.CutPrefix(f.Name, prefix)
			if !ok {
				t.Fatalf("family %s outside the %s prefix", f.Name, prefix)
			}
			fam := family{f.Help, f.Type, map[string]bool{}}
			for _, s := range f.Samples {
				fam.series[fmt.Sprint(strings.TrimPrefix(s.Name, prefix), s.Labels)] = true
			}
			out[suffix] = fam
		}
		return out
	}
	store := scrape(fronts["server"], "smartstore_")
	gate := scrape(fronts["gateway"], "smartgate_")

	shared := 0
	for suffix, g := range gate {
		s, ok := store[suffix]
		if !ok {
			continue
		}
		shared++
		if g.help != s.help || g.typ != s.typ {
			t.Errorf("%s: gateway (%s) %q, server (%s) %q", suffix, g.typ, g.help, s.typ, s.help)
		}
		// The server routes more endpoints (replication) than the
		// gateway; every series the gateway has, the server has too.
		for series := range g.series {
			if !s.series[series] {
				t.Errorf("%s: series %s only on the gateway", suffix, series)
			}
		}
	}
	for _, suffix := range []string{
		"http_requests_total", "http_request_duration_seconds", "query_duration_seconds",
		"admission_wait_seconds", "requests_rejected_total", "inflight_requests",
		"uptime_seconds", "metrics_scrapes_total", "build_info",
	} {
		if _, ok := gate[suffix]; !ok {
			t.Errorf("gateway exposes no %s", suffix)
		}
		if _, ok := store[suffix]; !ok {
			t.Errorf("server exposes no %s", suffix)
		}
	}
	if shared != 9 {
		t.Errorf("%d families shared between the prefixes, want the core's 9", shared)
	}
}
