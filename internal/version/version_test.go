package version

import (
	"testing"
	"testing/quick"

	"repro/internal/metadata"
)

func chg(kind Kind, id uint64) Change {
	return Change{Kind: kind, File: &metadata.File{ID: id, Path: "/f"}}
}

// total counts every recorded change, sealed or pending.
func total(c *Chain) int { return c.WalkBackward(func(Change) bool { return true }) }

// effective is each changed file's newest change: the first one a
// newest-first walk meets.
func effective(c *Chain) map[uint64]Change {
	out := map[uint64]Change{}
	c.WalkBackward(func(ch Change) bool {
		if _, seen := out[ch.File.ID]; !seen {
			out[ch.File.ID] = ch
		}
		return true
	})
	return out
}

func TestKindString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" || Modify.String() != "modify" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestNewChainPanicsOnBadRatio(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChain(0) did not panic")
		}
	}()
	NewChain(0)
}

func TestComprehensiveVersioning(t *testing.T) {
	c := NewChain(1)
	for i := 0; i < 5; i++ {
		c.Record(chg(Insert, uint64(i)))
	}
	if len(c.versions) != 5 {
		t.Fatalf("ratio-1 chain has %d versions, want 5", len(c.versions))
	}
	if len(c.pending) != 0 {
		t.Fatalf("pending = %d, want 0", len(c.pending))
	}
}

func TestAggregatedVersioning(t *testing.T) {
	c := NewChain(4)
	for i := 0; i < 10; i++ {
		c.Record(chg(Insert, uint64(i)))
	}
	if len(c.versions) != 2 {
		t.Fatalf("ratio-4 chain has %d versions after 10 changes, want 2", len(c.versions))
	}
	if len(c.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(c.pending))
	}
	if total(c) != 10 {
		t.Fatalf("total = %d, want 10", total(c))
	}
}

func TestVersionSequenceAscending(t *testing.T) {
	c := NewChain(2)
	for i := 0; i < 8; i++ {
		c.Record(chg(Modify, uint64(i)))
	}
	vs := c.versions
	for i := 1; i < len(vs); i++ {
		if vs[i].Seq <= vs[i-1].Seq {
			t.Fatal("version sequence not ascending")
		}
	}
}

func TestWalkBackwardNewestFirst(t *testing.T) {
	c := NewChain(2)
	for i := 0; i < 7; i++ { // 3 sealed versions + 1 pending
		c.Record(chg(Insert, uint64(i)))
	}
	var seen []uint64
	n := c.WalkBackward(func(ch Change) bool {
		seen = append(seen, ch.File.ID)
		return true
	})
	if n != 7 {
		t.Fatalf("examined %d, want 7", n)
	}
	want := []uint64{6, 5, 4, 3, 2, 1, 0}
	for i, id := range want {
		if seen[i] != id {
			t.Fatalf("backward order = %v, want %v", seen, want)
		}
	}
}

func TestWalkBackwardEarlyStop(t *testing.T) {
	c := NewChain(1)
	for i := 0; i < 10; i++ {
		c.Record(chg(Insert, uint64(i)))
	}
	n := c.WalkBackward(func(ch Change) bool { return ch.File.ID != 7 })
	if n != 3 { // ids 9, 8, 7
		t.Fatalf("early stop examined %d, want 3", n)
	}
}

func TestEffectiveNewestWins(t *testing.T) {
	c := NewChain(3)
	c.Record(chg(Insert, 1))
	c.Record(chg(Modify, 1))
	c.Record(chg(Delete, 1))
	c.Record(chg(Insert, 2))
	eff := effective(c)
	if len(eff) != 2 {
		t.Fatalf("%d files changed, want 2", len(eff))
	}
	if eff[1].Kind != Delete {
		t.Fatalf("file 1 effective kind = %v, want delete", eff[1].Kind)
	}
	if eff[2].Kind != Insert {
		t.Fatalf("file 2 effective kind = %v, want insert", eff[2].Kind)
	}
}

func TestCompact(t *testing.T) {
	c := NewChain(2)
	for i := 0; i < 5; i++ {
		c.Record(chg(Insert, uint64(i)))
	}
	out := c.Compact()
	if len(out) != 5 {
		t.Fatalf("Compact returned %d changes, want 5", len(out))
	}
	// Oldest-first for replay.
	for i, ch := range out {
		if ch.File.ID != uint64(i) {
			t.Fatalf("Compact order = %v at %d", ch.File.ID, i)
		}
	}
	if total(c) != 0 || len(c.versions) != 0 || len(c.pending) != 0 {
		t.Fatal("chain not empty after Compact")
	}
}

func TestSizeBytesVsRatio(t *testing.T) {
	// Fig. 14(a): comprehensive versioning (ratio 1) costs the most
	// space; higher ratios aggregate and shrink per-version overhead.
	sizes := map[int]int{}
	for _, ratio := range []int{1, 4, 16} {
		c := NewChain(ratio)
		for i := 0; i < 160; i++ {
			c.Record(chg(Modify, uint64(i)))
		}
		sizes[ratio] = c.SizeBytes()
	}
	if !(sizes[1] > sizes[4] && sizes[4] > sizes[16]) {
		t.Fatalf("space should shrink with ratio: %v", sizes)
	}
}

// Property: WalkBackward visits exactly as many changes as were
// recorded when not stopped.
func TestPropertyConservation(t *testing.T) {
	f := func(ratio8 uint8, n uint8) bool {
		ratio := int(ratio8%16) + 1
		c := NewChain(ratio)
		for i := 0; i < int(n); i++ {
			c.Record(chg(Insert, uint64(i)))
		}
		return total(c) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregation never loses a file — the newest-first walk
// yields every distinct recorded id and no other.
func TestPropertyEffectiveIDs(t *testing.T) {
	f := func(ids []uint8) bool {
		c := NewChain(3)
		distinct := map[uint64]bool{}
		for _, id := range ids {
			c.Record(chg(Modify, uint64(id)))
			distinct[uint64(id)] = true
		}
		eff := effective(c)
		if len(eff) != len(distinct) {
			return false
		}
		for id := range eff {
			if !distinct[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
