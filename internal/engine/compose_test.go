package engine

import "testing"

// foldFirstThenMerge is the composition both levels hand-rolled before
// Compose: the first child's report copied, each later one folded in
// with max-latency / summed-work, then the hop rule.
func foldFirstThenMerge(children []Report, contributing int) Report {
	var out Report
	for i, c := range children {
		if i == 0 {
			out = c
			continue
		}
		if c.Latency > out.Latency {
			out.Latency = c.Latency
		}
		out.Messages += c.Messages
		out.Hops += c.Hops
		out.UnitsSearched += c.UnitsSearched
	}
	if contributing > 1 {
		out.Hops += contributing - 1
	}
	return out
}

func TestCompose(t *testing.T) {
	a := Report{Latency: 0.25, Messages: 12, Hops: 1, UnitsSearched: 4}
	b := Report{Latency: 0.75, Messages: 3, Hops: 0, UnitsSearched: 1}
	c := Report{Latency: 0.5, Messages: 7, Hops: 2, UnitsSearched: 2}
	for _, tc := range []struct {
		name         string
		children     []Report
		contributing int
		want         Report
	}{
		{"no children", nil, 0, Report{}},
		{"one child is itself", []Report{a}, 1, a},
		{"one silent child", []Report{b}, 0, b},
		{"slowest wall time, summed work, a hop per extra contributor", []Report{a, b, c}, 3,
			Report{Latency: 0.75, Messages: 22, Hops: 5, UnitsSearched: 7}},
		{"children that returned nothing add work but no hop", []Report{a, b, c}, 1,
			Report{Latency: 0.75, Messages: 22, Hops: 3, UnitsSearched: 7}},
		{"an insert batch charges no hop", []Report{a, c}, 0,
			Report{Latency: 0.5, Messages: 19, Hops: 3, UnitsSearched: 6}},
	} {
		got := Compose(tc.children, tc.contributing)
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if old := foldFirstThenMerge(tc.children, tc.contributing); got != old {
			t.Errorf("%s: got %+v, the hand-rolled fold gave %+v", tc.name, got, old)
		}
	}
}
