package cluster

import "testing"

func TestContributingHops(t *testing.T) {
	cases := []struct {
		name  string
		found [][]uint64
		final []uint64
		want  int
	}{
		{
			name:  "single contributing group",
			found: [][]uint64{{1, 2}, {9}},
			final: []uint64{1, 2},
			want:  0,
		},
		{
			name:  "two contributing groups",
			found: [][]uint64{{1}, {2}},
			final: []uint64{1, 2},
			want:  1,
		},
		{
			name:  "checked but non-contributing groups ignored",
			found: [][]uint64{{1}, {8}, {9}},
			final: []uint64{1},
			want:  0,
		},
		{
			name:  "empty final",
			found: [][]uint64{{1}},
			final: nil,
			want:  0,
		},
		{
			name:  "three contributors",
			found: [][]uint64{{1}, {2}, {3}},
			final: []uint64{1, 2, 3},
			want:  2,
		},
	}
	for _, c := range cases {
		if got := contributingHops(c.found, c.final); got != c.want {
			t.Errorf("%s: hops = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOfflineMaxGroupsScaling(t *testing.T) {
	// Small deployments: cap near 3; larger: grows slowly, never above
	// the group count.
	c, _ := deploy(t, 400, 8, 91, Config{Seed: 91})
	groups := len(c.Tree.FirstLevelIndexUnits())
	m := c.offlineMaxGroups()
	if m < 1 || m > groups {
		t.Fatalf("offlineMaxGroups = %d with %d groups", m, groups)
	}
	big, _ := deploy(t, 3000, 60, 93, Config{Seed: 93})
	groupsBig := len(big.Tree.FirstLevelIndexUnits())
	mBig := big.offlineMaxGroups()
	if mBig > groupsBig {
		t.Fatalf("offlineMaxGroups = %d exceeds %d groups", mBig, groupsBig)
	}
	if groupsBig > 8 && mBig >= groupsBig {
		t.Fatal("off-line search must stay bounded well below all-groups multicast")
	}
}
