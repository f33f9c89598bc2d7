package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale is smaller still than -quick: the tests check structure,
// determinism and the gates, never a number.
var testScale = scale{files: 2000, warmup: 0.1, window: 0.5, prefix: 120, setups: 2, verifyOps: 60, hotPool: 32}

func testConfig(t *testing.T, seed uint64) runConfig {
	t.Helper()
	return runConfig{sc: testScale, seed: seed, tmp: t.TempDir()}
}

// benchmarkFile is BENCHMARK.json as the contract lays it out.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables is the drift check between
// BENCHMARK.json and the tables the program emits from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("name %q or unit %q outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name, "x")
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file says %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		check(m.Name, m.Unit)
		f := bf.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, f, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.Name, m.Unit)
		f := bf.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, f, m)
		}
		for _, on := range m.On {
			if workloadByName(on) == nil {
				t.Errorf("%s: applies to unknown workload %q", m.Name, on)
			}
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds != int(fullScale.window) {
		t.Errorf("run_seconds = %d, the full scale's window is %v", bf.RunSeconds, fullScale.window)
	}
}

// contractMetrics decodes a contract line back into its metric names.
func contractMetrics(t *testing.T, line string) map[string]float64 {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line: %v\n%s", err, line)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Fatalf("contract line lacks a key or attempted < 1: %s", line)
	}
	out := map[string]float64{}
	for k, v := range got.Metrics {
		out[k] = v.Value
	}
	return out
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of all five
// workloads and checks each declared name comes out exactly once, that
// every end-to-end value is non-zero, and that a per-layer value is
// zero exactly where the layer is not on the workload's path.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// Counts that are legitimately zero on a path that has the layer.
	mayBeZero := regexp.MustCompile(`evictions|invalidations|rejected|pruned|checkpoints|duplicates|partial|cache_hit_ratio|gc_pause`)
	for _, w := range workloads {
		cfg := testConfig(t, 7)
		timed, err := timedPass(w, cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		if !timed.Correct || timed.Failed != 0 {
			t.Errorf("%s timed: %d failed, problems %v", w.name, timed.Failed, timed.Problems)
		}
		got := contractMetrics(t, contractLine(timed, endToEnd))
		if len(got) != len(endToEnd) {
			t.Errorf("%s timed: %d metrics out, %d declared", w.name, len(got), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := got[m.Name]; !ok || v <= 0 || math.IsNaN(v) {
				t.Errorf("%s: end-to-end %s = %v (present %v)", w.name, m.Name, v, ok)
			}
		}

		traced, spans, err := tracedPass(w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: %d failed, problems %v", w.name, traced.Failed, traced.Problems)
		}
		if len(spans) < testScale.prefix {
			t.Errorf("%s traced: %d spans for a %d-op prefix", w.name, len(spans), testScale.prefix)
		}
		got = contractMetrics(t, contractLine(traced, perLayer))
		if len(got) != len(perLayer) || len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics out (%d measured), %d declared", w.name, len(got), len(traced.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			v, ok := got[m.Name]
			switch {
			case !ok || math.IsNaN(v):
				t.Errorf("%s: per-layer %s missing", w.name, m.Name)
			case !m.appliesTo(w) && v != 0:
				t.Errorf("%s: %s = %v on a workload it does not apply to", w.name, m.Name, v)
			case m.appliesTo(w) && v == 0 && !mayBeZero.MatchString(m.Name):
				t.Errorf("%s: %s applies here and came out 0", w.name, m.Name)
			}
		}
	}
}

// TestSameSeedSameInputsAndCounts: the seed fixes the op streams, and
// with one client the traced pass's counts and the recalls repeat
// exactly.
func TestSameSeedSameInputsAndCounts(t *testing.T) {
	w := workloadByName("write_durable")
	c, err := genCorpus(testScale.files)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < clients; ci++ {
		a := newOpSource(w, c, testScale, 11, ci).take(500)
		b := newOpSource(w, c, testScale, 11, ci).take(500)
		other := newOpSource(w, c, testScale, 12, ci).take(500)
		same := 0
		for i := range a {
			if a[i].Fingerprint() != b[i].Fingerprint() {
				t.Fatalf("client %d op %d differs between two draws of one seed", ci, i)
			}
			if a[i].Fingerprint() == other[i].Fingerprint() {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("client %d: another seed drew the same stream", ci)
		}
	}

	ru := workloadByName("read_uncached")
	var counts [2]map[string]float64
	for i := range counts {
		cfg := testConfig(t, 11)
		traced, _, err := tracedPass(ru, cfg)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := timedPass(ru, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = map[string]float64{
			"range_recall": timed.Metrics["range_recall"],
			"topk_recall":  timed.Metrics["topk_recall"],
		}
		for _, n := range []string{"semtree.records_scanned_per_result", "semtree.nodes_visited_per_query",
			"wire.resp_bytes_per_op", "cluster.messages_per_query", "check.topk_recall"} {
			counts[i][n] = traced.Metrics[n]
		}
	}
	for n, v := range counts[0] {
		if v != counts[1][n] || v == 0 {
			t.Errorf("%s: %v then %v on the same seed", n, v, counts[1][n])
		}
	}
}

// TestLadderOrderAndSum: on read_uncached every boundary down to the
// cluster contains the next one in, so boundary times must not grow
// inward (within 2 % of the round trip: store and engine differ by about
// a microsecond; semtree is the exact query, not an interval of the
// cluster's, and is left out), and the self times must add back up to
// the round trip within a tenth. A full-scale run adds up to within 1 to
// 4 %; the test allows for a busy machine and takes the best of three.
func TestLadderOrderAndSum(t *testing.T) {
	want := []string{layerClient, layerServer, layerStore, layerEngine, layerCluster, layerSemtree}
	check := func(traced *result) []string {
		var problems []string
		for _, class := range classNames[:classWrite] {
			var rows []ladderRow
			for _, r := range traced.Ladder {
				if r.Class == class {
					rows = append(rows, r)
				}
			}
			if len(rows) != len(want) {
				t.Fatalf("%s: %d boundaries, want %d", class, len(rows), len(want))
			}
			rt, sum := rows[0].BoundaryUs, 0.0
			for i, r := range rows {
				if r.Layer != want[i] {
					t.Fatalf("%s: boundary %d is %s, want %s", class, i, r.Layer, want[i])
				}
				if i > 0 && r.Layer != layerSemtree && r.BoundaryUs > rows[i-1].BoundaryUs+0.02*rt {
					problems = append(problems, fmt.Sprintf("%s: %s (%.1f us) is slower than %s (%.1f us) around it",
						class, r.Layer, r.BoundaryUs, rows[i-1].Layer, rows[i-1].BoundaryUs))
				}
				sum += r.SelfUs
			}
			if math.Abs(sum-rt) > 0.10*rt {
				problems = append(problems, fmt.Sprintf("%s: self times add to %.1f us, the round trip is %.1f us", class, sum, rt))
			}
		}
		return problems
	}
	var problems []string
	for attempt := 0; attempt < 3; attempt++ {
		// The full corpus: a tenth is 80 us of an 840 us top-k there, and
		// a few microseconds of timer jitter on the small one.
		cfg := testConfig(t, 3)
		cfg.sc.files, cfg.sc.prefix = fullScale.files, 300
		traced, _, err := tracedPass(workloadByName("read_uncached"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if problems = check(traced); len(problems) == 0 || raceEnabled {
			return
		}
	}
	t.Errorf("three attempts, the last one:\n%s", strings.Join(problems, "\n"))
}

// TestCompare: a report against itself passes; one latency slowed by
// more than its bound is flagged on exactly that row, and by less than
// its bound is not; a base whose runs disagree by more than the bound is
// unresolved, not ok.
func TestCompare(t *testing.T) {
	mk := func(scale func(run int, metric string) float64) *report {
		rep := &report{}
		for run := 0; run < 5; run++ {
			r := &result{Workload: "read_hot", Pass: "timed", Metrics: map[string]float64{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = 10 * scale(run, m.Name)
			}
			rep.Runs = append(rep.Runs, r)
		}
		return rep
	}
	steady := func(int, string) float64 { return 1 }
	base := mk(steady)
	for _, row := range compareRows(base, base) {
		if row.verdict != verdictOK {
			t.Errorf("self-compare: %s %s is %s", row.workload, row.metric, row.verdict)
		}
	}
	var topkBound float64
	for _, m := range endToEnd {
		if m.Name == "topk_p50_ms" {
			topkBound = m.Bound
		}
	}
	slowBy := func(share float64) *report {
		return mk(func(_ int, m string) float64 {
			if m == "topk_p50_ms" {
				return 1 + share
			}
			return 1
		})
	}
	for _, row := range compareRows(base, slowBy(topkBound-0.02)) {
		if row.verdict != verdictOK {
			t.Errorf("slowdown inside the bound: %s is %s", row.metric, row.verdict)
		}
	}
	rows := compareRows(base, slowBy(topkBound+0.02))
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric", len(rows))
	}
	for _, row := range rows {
		want := verdictOK
		if row.metric == "topk_p50_ms" {
			want = verdictRegressed
		}
		if row.verdict != want {
			t.Errorf("%s: %s, want %s", row.metric, row.verdict, want)
		}
	}
	// ops_per_s is better when higher: a gain is not a regression.
	fast := mk(func(_ int, m string) float64 {
		if m == "ops_per_s" {
			return 1.5
		}
		return 1
	})
	for _, row := range compareRows(base, fast) {
		if row.verdict != verdictOK {
			t.Errorf("faster run: %s is %s", row.metric, row.verdict)
		}
	}
	noisy := mk(func(run int, m string) float64 {
		if m == "range_p95_ms" {
			return 1 + 0.4*float64(run)
		}
		return 1
	})
	for _, row := range compareRows(noisy, noisy) {
		if row.metric == "range_p95_ms" && row.verdict != verdictUnresolved {
			t.Errorf("noisy base: range_p95_ms is %s, want unresolved", row.verdict)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p != 10 {
		t.Errorf("nearest-rank p95 of 1..10 = %v, want 10", p)
	}
}
