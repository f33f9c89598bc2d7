package engine

import (
	"context"
	"testing"

	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// budgetEngine builds a multi-shard engine with the given offline group
// budget over a deterministic MSN population.
func budgetEngine(t *testing.T, shards, budget int) (*Engine, *trace.Set) {
	t.Helper()
	set := trace.MSN().Generate(600, 17)
	cfg := testConfig(24, shards)
	cfg.OfflineGroupBudget = budget
	e, err := Build(set.Files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, set
}

func TestOfflineBudgetValidation(t *testing.T) {
	set := trace.MSN().Generate(100, 1)
	cfg := testConfig(10, 2)
	cfg.OfflineGroupBudget = -1
	if _, err := Build(set.Files, cfg); err == nil {
		t.Fatal("negative offline group budget accepted")
	}
	for _, b := range []int{0, 1, 2, 100} {
		cfg.OfflineGroupBudget = b
		if _, err := Build(set.Files, cfg); err != nil {
			t.Fatalf("budget %d rejected: %v", b, err)
		}
	}
}

// TestOfflineBudgetShardRouting: the boundary budgets map onto the
// off-line shard fan-out as documented — 0 keeps the 1+n/4 heuristic,
// 1 touches a single shard, and ≥ shard count touches every shard.
func TestOfflineBudgetShardRouting(t *testing.T) {
	const shards = 4
	for _, tc := range []struct{ budget, want int }{
		{0, 1 + shards/4},
		{1, 1},
		{shards, shards},
		{shards + 5, shards},
	} {
		e, _ := budgetEngine(t, shards, tc.budget)
		if got := e.offlineMaxShards(); got != tc.want {
			t.Errorf("budget %d: offlineMaxShards = %d, want %d", tc.budget, got, tc.want)
		}
	}
}

// TestBudgetAtLeastShardCountIsExhaustive: with the budget at (or
// above) both the shard count and every shard's group count, the
// off-line path must equal the exact single-union-store answer on a
// propagated snapshot — proving that neither shard routing nor group
// routing nor the conservative per-shard prunes ever drop a shard or
// group that would contribute to the exact answer.
func TestBudgetAtLeastShardCountIsExhaustive(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, set := budgetEngine(t, shards, 1000)
		gen := trace.NewQueryGen(set, stats.Zipf, nil, 23)
		ctx := context.Background()
		for i := 0; i < 40; i++ {
			rq := gen.Range(0.08)
			want := query.RangeTruth(set.Files, rq)
			got, err := e.Range(ctx, rq, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if r := stats.Recall(want, got.IDs); r != 1 {
				t.Fatalf("shards=%d range query %d: offline recall %.3f with exhaustive budget", shards, i, r)
			}
			if r := stats.Recall(got.IDs, want); r != 1 {
				t.Fatalf("shards=%d range query %d: answer has ids outside the truth", shards, i)
			}

			tq := gen.TopK(8)
			wantK := query.TopKTruth(set.Files, set.Norm, tq)
			gotK, err := e.TopK(ctx, tq, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK.Shards) != shards {
				t.Fatalf("shards=%d topk query %d: exhaustive budget targeted %d shards", shards, i, len(gotK.Shards))
			}
			if r := stats.Recall(wantK, gotK.IDs); r != 1 {
				t.Fatalf("shards=%d topk query %d: offline recall %.3f with exhaustive budget", shards, i, r)
			}
		}
	}
}

// TestBudgetOneNeverInventsMatches: the minimal budget may miss range
// matches (that is the recall the harness measures) but everything it
// returns must be a true match, every searched shard was a real
// overlap candidate, and a point query must still find an existing
// path — the Bloom shard prune has no false negatives.
func TestBudgetOneNeverInventsMatches(t *testing.T) {
	e, set := budgetEngine(t, 4, 1)
	gen := trace.NewQueryGen(set, stats.Zipf, nil, 29)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		rq := gen.Range(0.08)
		truth := map[uint64]bool{}
		for _, id := range query.RangeTruth(set.Files, rq) {
			truth[id] = true
		}
		got, err := e.Range(ctx, rq, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got.IDs {
			if !truth[id] {
				t.Fatalf("range query %d: id %d answered but not a true match", i, id)
			}
		}
	}
	for i := 0; i < 60; i++ {
		f := set.Files[(i*97)%len(set.Files)]
		got, err := e.Point(ctx, query.Point{Filename: f.Path}, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range got.IDs {
			if id == f.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query for stored path %q missed id %d", f.Path, f.ID)
		}
	}
}

// TestBudgetBoundsSearchWork: the budget is a real breadth knob — the
// minimal budget searches no more units than the exhaustive one, and
// strictly fewer in aggregate over a query batch.
func TestBudgetBoundsSearchWork(t *testing.T) {
	eMin, set := budgetEngine(t, 4, 1)
	eMax, _ := budgetEngine(t, 4, 1000)
	genA := trace.NewQueryGen(set, stats.Zipf, nil, 31)
	genB := trace.NewQueryGen(set, stats.Zipf, nil, 31)
	ctx := context.Background()
	sumMin, sumMax := 0, 0
	for i := 0; i < 30; i++ {
		qa, qb := genA.TopK(8), genB.TopK(8)
		a, err := eMin.TopK(ctx, qa, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := eMax.TopK(ctx, qb, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sumMin += a.Report.UnitsSearched
		sumMax += b.Report.UnitsSearched
	}
	if sumMin >= sumMax {
		t.Fatalf("budget 1 searched %d units, exhaustive budget %d — budget is not bounding work", sumMin, sumMax)
	}
}
