package cluster

import (
	"math"
	"slices"
	"testing"

	"repro/internal/semtree"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestCostClosedForms drives the closed forms with a cost model whose
// every time is an exact binary fraction: T(256) = 5, T(64+16n) = 2+n/4,
// ProbeCost(n) = n/2, LSIFold = 2, MsgHandle = 1.
func TestCostClosedForms(t *testing.T) {
	cost := simnet.CostModel{HopLatency: 1, BandwidthBps: 64, MemProbe: 0.5, LSIFold: 2, MsgHandle: 1}
	home := &semtree.Node{ID: 10}
	a, b, c := &semtree.Node{ID: 11}, &semtree.Node{ID: 12}, &semtree.Node{ID: 13}
	type outcome struct {
		order    []int
		latency  simnet.Time
		messages int64
	}
	complexQuery := func(online bool, groups ...groupCost) outcome {
		order, latency, messages := complexCost(cost, home, groups, online)
		return outcome{order, latency, messages}
	}
	point := func(work simnet.Time, ids, units int) outcome {
		latency, messages := pointCost(cost, work, ids, units)
		return outcome{nil, latency, messages}
	}
	update := func() outcome {
		latency, messages := updateCost(cost)
		return outcome{nil, latency, messages}
	}
	cases := []struct {
		name string
		got  outcome
		want outcome
	}{
		// Home folds the query in (5 + 2) and answers at once.
		{"no groups", complexQuery(false), outcome{nil, 7, 1}},
		{"no groups on-line", complexQuery(true), outcome{nil, 5, 1}},
		// Hosts get the query at 12 and finish at 15 and 16. Replies
		// reach home at 17.25 and 18.5 and are handled by 18.25 and
		// 19.5; the 3-id answer takes 2.75 more.
		{"two groups on two hosts", complexQuery(false,
			groupCost{a, 3, 1}, groupCost{b, 4, 2}), outcome{[]int{0, 1}, 22.25, 6}},
		// One host searches the second group after the first: 15, 19.
		{"two groups on one host", complexQuery(false,
			groupCost{a, 3, 1}, groupCost{a, 4, 2}), outcome{[]int{0, 1}, 25.25, 6}},
		// On-line, home checks four groups (2) and searches group 0 itself
		// from 12 to 18. The other three replies arrive at 15 and wait
		// for that search (18 to 21); group 0's arrives at 20 and is
		// handled from 21.
		{"group hosted on home", complexQuery(true,
			groupCost{home, 6, 0}, groupCost{a, 1, 0}, groupCost{b, 1, 0}, groupCost{c, 1, 0}),
			outcome{[]int{1, 2, 3, 0}, 24, 10}},
		// Both finish at 15: ids join in group order, although the
		// shorter reply of group 1 reaches home first.
		{"two groups finish at once", complexQuery(false,
			groupCost{a, 3, 2}, groupCost{b, 3, 1}), outcome{[]int{0, 1}, 22, 6}},
		// The answer waits for the slowest group (15, reply at 17).
		{"slowest group decides", complexQuery(false,
			groupCost{a, 1, 0}, groupCost{b, 3, 0}, groupCost{c, 2, 0}), outcome{[]int{0, 2, 1}, 20, 8}},
		// 5 + 3 of Bloom work, then two 2-id replies of 2.5.
		{"point", point(3, 2, 0), outcome{nil, 13, 4}},
		{"point forwarded to three units", point(3, 2, 3), outcome{nil, 13, 6}},
		// 5 + a one-record probe and a fold-in (2.5) + a 64-byte ack.
		{"insert", update(), outcome{nil, 9.5, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !slices.Equal(tc.got.order, tc.want.order) || tc.got.latency != tc.want.latency ||
				tc.got.messages != tc.want.messages {
				t.Fatalf("got order %v latency %v messages %d, want %v %v %d", tc.got.order, tc.got.latency,
					tc.got.messages, tc.want.order, tc.want.latency, tc.want.messages)
			}
		})
	}
}

// TestReportIndependentOfHistory serves one query on two deployments
// of the same seed whose home-unit streams stand at the same draw: one
// has answered 5,000 top-k queries, the other only drew their home
// units. A report is a function of the deployment's state, so the two
// answers and reports are bit-identical.
func TestReportIndependentOfHistory(t *testing.T) {
	busy, set := deploy(t, 800, 16, 11, Config{Seed: 11})
	fresh, _ := deploy(t, 800, 16, 11, Config{Seed: 11})
	gen := trace.NewQueryGen(set, stats.Zipf, trace.DefaultQueryAttrs(), 12)
	for i := 0; i < 5000; i++ {
		q := gen.TopK(1 + i%10)
		if i%4 == 0 {
			busy.TopKOnline(q)
		} else {
			busy.TopKOffline(q)
		}
		fresh.HomeUnit()
	}
	q := gen.TopK(8)
	for _, online := range []bool{false, true} {
		serve := (*Cluster).TopKOffline
		if online {
			serve = (*Cluster).TopKOnline
		}
		gotIDs, got := serve(busy, q)
		wantIDs, want := serve(fresh, q)
		if !slices.Equal(gotIDs, wantIDs) || got != want ||
			math.Float64bits(float64(got.Latency)) != math.Float64bits(float64(want.Latency)) {
			t.Fatalf("online=%v after 5,000 queries: %v %+v; fresh deployment: %v %+v", online, gotIDs, got, wantIDs, want)
		}
	}
}
