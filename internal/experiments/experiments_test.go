package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// quick returns test-scale params, deterministic.
func quick() Params { return Quick() }

// parseF reads a number back from a rendered table cell.
func parseF(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f", &v)
	return v
}

// latencyCells reads queryLatencyCell's rows as {DBMS, R-tree,
// SmartStore} mean latencies by query kind.
func latencyCells(tif int, p Params) map[string][3]float64 {
	out := map[string][3]float64{}
	for _, r := range queryLatencyCell(trace.MSN(), tif, p) {
		out[r[2]] = [3]float64{parseF(r[3]), parseF(r[4]), parseF(r[5])}
	}
	return out
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Caption: "c", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	s := tb.String()
	if !strings.Contains(s, "== x: c ==") || !strings.Contains(s, "bb") {
		t.Fatalf("render = %q", s)
	}
}

func TestTraceScaleUpTables(t *testing.T) {
	for _, spec := range trace.Specs() {
		tb := TraceScaleUp(spec, quick())
		if len(tb.Rows) < 5 {
			t.Fatalf("%s: %d rows, want ≥ 5", spec.Name, len(tb.Rows))
		}
		if !strings.Contains(tb.Caption, spec.Name) {
			t.Fatalf("caption %q lacks trace name", tb.Caption)
		}
	}
}

func TestQueryLatencyShape(t *testing.T) {
	// The Table 4 reproduction target: DBMS > R-tree > SmartStore for
	// every query type, and latencies grow with TIF. Enough units that
	// SmartStore's per-unit virtual population fits one server's memory,
	// as in the paper's 60-unit prototype.
	p := Params{BaseFiles: 1200, Units: 40, Queries: 20, Seed: 7}
	for _, tif := range []int{120, 160} {
		cells := latencyCells(tif, p)
		for kind, c := range cells {
			if !(c[0] > c[1]) {
				t.Errorf("TIF %d %s: DBMS %v not above R-tree %v", tif, kind, c[0], c[1])
			}
			if !(c[1] > c[2]) {
				t.Errorf("TIF %d %s: R-tree %v not above SmartStore %v", tif, kind, c[1], c[2])
			}
		}
		// Headline: ~10³× between DBMS and SmartStore for complex queries.
		if ratio := cells["range"][0] / cells["range"][2]; ratio < 50 {
			t.Errorf("TIF %d: DBMS/SmartStore range ratio %v, want ≫ 50", tif, ratio)
		}
	}
	c120 := latencyCells(120, p)
	c160 := latencyCells(160, p)
	if c160["range"][0] <= c120["range"][0] {
		t.Error("DBMS range latency did not grow with TIF")
	}
}

func TestSpaceOverheadShape(t *testing.T) {
	// Fig. 7: SmartStore per-node < R-tree central < DBMS central.
	for _, row := range SpaceOverhead(quick()).Rows {
		smart, rtree, dbms := parseF(row[1]), parseF(row[2]), parseF(row[3])
		if !(smart < rtree && rtree < dbms) {
			t.Fatalf("%s: space ordering violated: smart=%v rtree=%v dbms=%v KB", row[0], smart, rtree, dbms)
		}
	}
}

func TestRoutingHopsShape(t *testing.T) {
	// Fig. 8: the large majority of complex queries are 0-hop.
	h := RoutingHopsHistogram(trace.MSN(), quick())
	if h.Fraction(0) < 0.6 {
		t.Fatalf("0-hop fraction = %v, want ≥ 0.6 (paper: 87–91%%)", h.Fraction(0))
	}
}

func TestPointHitRateShape(t *testing.T) {
	// Fig. 9: over ~88% of point queries served accurately.
	rate := PointHitRateNumber(trace.MSN(), quick())
	if rate < 0.8 {
		t.Fatalf("point hit rate = %v, want ≥ 0.8 (paper: 88.2%%)", rate)
	}
}

func TestRecallHPShape(t *testing.T) {
	p := quick()
	// Fig. 10: top-k ≥ range per distribution; Zipf/Gauss ≥ Uniform.
	topkU, rangeU := RecallHPNumbers(stats.Uniform, p)
	topkZ, rangeZ := RecallHPNumbers(stats.Zipf, p)
	if topkZ < rangeZ-0.1 {
		t.Errorf("Zipf: top-8 recall %v well below range recall %v (paper: top-k higher)", topkZ, rangeZ)
	}
	if rangeZ < rangeU-0.1 {
		t.Errorf("Zipf range recall %v far below Uniform %v (paper: skewed ≥ uniform)", rangeZ, rangeU)
	}
	for _, v := range []float64{topkU, rangeU, topkZ, rangeZ} {
		if v < 0.4 || v > 1.0001 {
			t.Fatalf("recall out of plausible band: %v", v)
		}
	}
}

func TestOptimalThresholdsTables(t *testing.T) {
	a, b := OptimalThresholds(quick())
	if len(a.Rows) == 0 {
		t.Fatal("fig11a empty")
	}
	if len(b.Rows) == 0 {
		t.Fatal("fig11b empty")
	}
	for _, row := range a.Rows {
		v := parseF(row[1])
		if v < 0 || v > 1 {
			t.Fatalf("threshold %v out of [0,1]", v)
		}
	}
}

func TestRecallScaleStaysHigh(t *testing.T) {
	// Fig. 12: recall maintained as scale grows.
	p := quick()
	small := RecallScaleNumber(stats.Zipf, 8, p)
	large := RecallScaleNumber(stats.Zipf, 24, p)
	if small < 0.5 || large < 0.5 {
		t.Fatalf("recall collapsed: %v → %v", small, large)
	}
	if large < small-0.3 {
		t.Fatalf("recall degraded badly with scale: %v → %v", small, large)
	}
}

func TestOnOfflineShape(t *testing.T) {
	// Fig. 13: off-line uses fewer messages, and the message gap widens
	// with system scale.
	p := quick()
	onLatS, offLatS, onMsgS, offMsgS := OnOfflineNumbers(8, p)
	onLatL, offLatL, onMsgL, offMsgL := OnOfflineNumbers(24, p)
	if offMsgS >= onMsgS || offMsgL >= onMsgL {
		t.Fatalf("off-line messages not below on-line: %v/%v, %v/%v", offMsgS, onMsgS, offMsgL, onMsgL)
	}
	if (onMsgL - offMsgL) <= (onMsgS - offMsgS) {
		t.Fatalf("message gap did not widen with scale")
	}
	if offLatS > onLatS || offLatL > onLatL {
		t.Fatalf("off-line latency above on-line: %v/%v, %v/%v", offLatS, onLatS, offLatL, onLatL)
	}
}

func TestVersioningOverheadShape(t *testing.T) {
	// Fig. 14: space shrinks with ratio; extra latency stays bounded
	// (paper: no more than 10%).
	p := quick()
	s1, e1 := VersioningOverheadNumbers(trace.MSN(), 1, p)
	s8, e8 := VersioningOverheadNumbers(trace.MSN(), 8, p)
	if s1 < s8 {
		t.Fatalf("comprehensive versioning space %v below ratio-8 %v", s1, s8)
	}
	for _, e := range []float64{e1, e8} {
		if e < 0 || e > 0.5 {
			t.Fatalf("version latency share %v out of band", e)
		}
	}
}

func TestRecallVersioningShape(t *testing.T) {
	// Tables 5/6: versioning recall ≥ non-versioned recall.
	p := quick()
	p.Queries = 40
	for _, dist := range []stats.Distribution{stats.Zipf} {
		off := RecallVersioningNumber(trace.MSN(), dist, "range", p.Queries*3, false, p)
		on := RecallVersioningNumber(trace.MSN(), dist, "range", p.Queries*3, true, p)
		if on < off {
			t.Fatalf("%v: versioned recall %v below non-versioned %v", dist, on, off)
		}
	}
}

func TestRecallVersioningTableRenders(t *testing.T) {
	p := quick()
	p.Queries = 10
	tb := RecallVersioning(trace.MSN(), p)
	if len(tb.Rows) != 12 { // 3 dists × 2 kinds × 2 versioning states
		t.Fatalf("table rows = %d, want 12", len(tb.Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	p := quick()
	p.Queries = 15
	for _, tb := range []*Table{
		AblationLSIvsKMeans(p),
		AblationBloomSizing(p),
		AblationAdmissionThreshold(p),
		AblationAutoConfig(p),
		AblationReplicaDepth(p),
	} {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", tb.ID)
		}
	}
}

func TestAblationLSIBeatsRoundRobinSSE(t *testing.T) {
	p := quick()
	p.Queries = 10
	tb := AblationLSIvsKMeans(p)
	var lsiSSE, rrSSE float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "LSI semantic sort":
			lsiSSE = parseF(row[1])
		case "round-robin":
			rrSSE = parseF(row[1])
		}
	}
	if lsiSSE >= rrSSE {
		t.Fatalf("LSI SSE %v not below round-robin %v", lsiSSE, rrSSE)
	}
}
