package baseline

import (
	"testing"

	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

func corpus(t testing.TB, n int, seed uint64) *trace.Set {
	t.Helper()
	return trace.MSN().Generate(n, seed)
}

// System is the query interface both baselines share.
type System interface {
	Point(q query.Point) ([]uint64, Result)
	Range(q query.Range) ([]uint64, Result)
	TopK(q query.TopK) ([]uint64, Result)
	SizeBytes() int
}

func systems(t testing.TB, set *trace.Set, cfg Config) []System {
	t.Helper()
	return []System{
		NewDBMS(set.Files, set.Norm, cfg),
		NewRTree(set.Files, set.Norm, cfg),
	}
}

func TestPointQueryCorrect(t *testing.T) {
	set := corpus(t, 300, 2)
	for _, s := range systems(t, set, Config{}) {
		for i := 0; i < 50; i++ {
			f := set.Files[(i*13)%len(set.Files)]
			got, res := s.Point(query.Point{Filename: f.Path})
			found := false
			for _, id := range got {
				if id == f.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("%T: point query missed %q", s, f.Path)
			}
			if res.Latency <= 0 || res.RecordsExamined <= 0 {
				t.Fatalf("%T: empty cost accounting", s)
			}
		}
		// Absent name → no results.
		got, _ := s.Point(query.Point{Filename: "/absent/file"})
		if len(got) != 0 {
			t.Fatalf("%T: absent point query returned %v", s, got)
		}
	}
}

func TestRangeQueryExact(t *testing.T) {
	set := corpus(t, 400, 3)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 5)
	for _, s := range systems(t, set, Config{}) {
		for i := 0; i < 30; i++ {
			q := gen.Range(0.1)
			got, _ := s.Range(q)
			want := query.RangeTruth(set.Files, q)
			if r := stats.Recall(want, got); r != 1 {
				t.Fatalf("%T: range recall %v, want 1 (baselines are exact)", s, r)
			}
			if len(got) != len(want) {
				t.Fatalf("%T: range returned %d, truth %d (no extras allowed)", s, len(got), len(want))
			}
		}
	}
}

func TestTopKExactForDBMS(t *testing.T) {
	set := corpus(t, 300, 7)
	gen := trace.NewQueryGen(set, stats.Gauss, nil, 11)
	d := NewDBMS(set.Files, set.Norm, Config{})
	for i := 0; i < 20; i++ {
		q := gen.TopK(8)
		got, _ := d.TopK(q)
		want := query.TopKTruth(set.Files, set.Norm, q)
		if stats.Recall(want, got) != 1 {
			t.Fatal("DBMS brute-force topk must be exact")
		}
	}
}

func TestTopKRTreeHighRecall(t *testing.T) {
	set := corpus(t, 300, 13)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 17)
	r := NewRTree(set.Files, set.Norm, Config{})
	var rec stats.Summary
	for i := 0; i < 20; i++ {
		q := gen.TopK(8)
		got, _ := r.TopK(q)
		want := query.TopKTruth(set.Files, set.Norm, q)
		rec.Add(stats.Recall(want, got))
	}
	if rec.Mean() < 0.85 {
		t.Fatalf("R-tree topk recall %v, want ≥ 0.85", rec.Mean())
	}
}

func TestVirtualScaleMultipliesLatency(t *testing.T) {
	set := corpus(t, 200, 19)
	small := NewDBMS(set.Files, set.Norm, Config{VirtualScale: 1})
	big := NewDBMS(set.Files, set.Norm, Config{VirtualScale: 1000})
	q := query.Point{Filename: set.Files[100].Path}
	_, rs := small.Point(q)
	_, rb := big.Point(q)
	if rb.Latency <= rs.Latency {
		t.Fatalf("scaled latency %v not above unscaled %v", rb.Latency, rs.Latency)
	}
	if rb.RecordsExamined != rs.RecordsExamined*1000 {
		t.Fatalf("scaled records %d, want %d", rb.RecordsExamined, rs.RecordsExamined*1000)
	}
}

func TestDiskPagingKicksInBeyondMemory(t *testing.T) {
	set := corpus(t, 200, 23)
	cost := simnet.DefaultCostModel()
	// Virtual population far beyond one server's memory.
	scale := float64(cost.MemCapacity) // 200 files → 200×2M records ≫ capacity
	d := NewDBMS(set.Files, set.Norm, Config{VirtualScale: scale})
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 29)
	q := gen.TopK(8)
	_, res := d.TopK(q)
	// A pure in-memory scan of the same volume would cost records×probe;
	// paging must make it far slower.
	inMem := cost.ProbeCost(int(res.RecordsExamined))
	if res.Latency < inMem*2 {
		t.Fatalf("paged latency %v not well above in-memory %v", res.Latency, inMem)
	}
}

func TestLatencyOrderingDBMSWorst(t *testing.T) {
	// The headline of Table 4: DBMS > R-tree for complex queries on the
	// same (virtually scaled) population.
	set := corpus(t, 1000, 31)
	cfg := Config{VirtualScale: 10000}
	d := NewDBMS(set.Files, set.Norm, cfg)
	r := NewRTree(set.Files, set.Norm, cfg)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 37)
	var dLat, rLat float64
	for i := 0; i < 20; i++ {
		q := gen.Range(0.05)
		_, dr := d.Range(q)
		_, rr := r.Range(q)
		dLat += float64(dr.Latency)
		rLat += float64(rr.Latency)
	}
	if dLat <= rLat {
		t.Fatalf("DBMS range latency %v not above R-tree %v", dLat, rLat)
	}
}

func TestSizeOrderingDBMSLargest(t *testing.T) {
	// Fig. 7: DBMS (one B+-tree per attribute) costs the most space.
	set := corpus(t, 1000, 41)
	d := NewDBMS(set.Files, set.Norm, Config{})
	r := NewRTree(set.Files, set.Norm, Config{})
	if d.SizeBytes() <= r.SizeBytes() {
		t.Fatalf("DBMS size %d not above R-tree %d", d.SizeBytes(), r.SizeBytes())
	}
}
