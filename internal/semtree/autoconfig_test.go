package semtree

import (
	"testing"

	"repro/internal/metadata"
)

func TestAutoConfigureKeepsFullTree(t *testing.T) {
	set := testCorpus(t, 400, 101)
	units := PlaceSemantic(set.Files, 10, set.Norm, metadata.AllAttrs())
	f := AutoConfigure(units, set.Norm, Config{}, nil, 0)
	if f.Full == nil {
		t.Fatal("forest lacks the full-D tree")
	}
	if f.Threshold != DefaultAutoConfigThreshold {
		t.Fatalf("threshold = %v, want default %v", f.Threshold, DefaultAutoConfigThreshold)
	}
	if f.Considered != len(DefaultSubsets()) {
		t.Fatalf("considered %d subsets, want %d", f.Considered, len(DefaultSubsets()))
	}
	if f.Kept != len(f.Specialized) {
		t.Fatalf("Kept=%d but %d specialized trees", f.Kept, len(f.Specialized))
	}
}

func TestAutoConfigureHighThresholdKeepsFewer(t *testing.T) {
	set := testCorpus(t, 400, 103)
	units := PlaceSemantic(set.Files, 12, set.Norm, metadata.AllAttrs())
	loose := AutoConfigure(units, set.Norm, Config{}, nil, 0.01)
	strict := AutoConfigure(units, set.Norm, Config{}, nil, 5.0)
	if strict.Kept > loose.Kept {
		t.Fatalf("stricter threshold kept more trees (%d > %d)", strict.Kept, loose.Kept)
	}
	if strict.Kept != 0 {
		t.Fatalf("threshold 500%% should keep no specialized trees, kept %d", strict.Kept)
	}
}

func TestSelectTreePrefersMatchingSubset(t *testing.T) {
	set := testCorpus(t, 300, 107)
	units := PlaceSemantic(set.Files, 8, set.Norm, metadata.AllAttrs())
	subsets := [][]metadata.Attr{
		{metadata.AttrSize},
		{metadata.AttrSize, metadata.AttrCTime},
	}
	f := AutoConfigure(units, set.Norm, Config{}, subsets, 0.0001)
	// Query over attributes no specialized tree covers → full tree.
	if got := f.SelectTree([]metadata.Attr{metadata.AttrAccessFreq}); got != f.Full {
		t.Fatal("unmatched query should select the full tree")
	}
	// Query exactly matching a kept subset selects it (when kept).
	for _, tr := range f.Specialized {
		got := f.SelectTree(tr.Attrs)
		if got == f.Full {
			t.Fatalf("query matching subset %v fell back to full tree", SubsetKey(tr.Attrs))
		}
	}
}

func TestSelectTreeNoExtraneousDims(t *testing.T) {
	set := testCorpus(t, 300, 109)
	units := PlaceSemantic(set.Files, 8, set.Norm, metadata.AllAttrs())
	subsets := [][]metadata.Attr{
		{metadata.AttrSize, metadata.AttrCTime, metadata.AttrMTime},
	}
	f := AutoConfigure(units, set.Norm, Config{}, subsets, 0.0001)
	// A 1-attribute query must not select a 3-attribute tree whose extra
	// dims would mis-group: it lacks full overlap, so fall back.
	got := f.SelectTree([]metadata.Attr{metadata.AttrSize})
	if got != f.Full {
		t.Fatal("partial-overlap specialized tree selected over full tree")
	}
}

func TestSubsetKeyStable(t *testing.T) {
	a := SubsetKey([]metadata.Attr{metadata.AttrCTime, metadata.AttrSize})
	b := SubsetKey([]metadata.Attr{metadata.AttrSize, metadata.AttrCTime})
	if a != b {
		t.Fatalf("SubsetKey order-dependent: %q vs %q", a, b)
	}
	if a != "ctime+size" {
		t.Fatalf("SubsetKey = %q, want ctime+size", a)
	}
}

func TestDefaultSubsetsCount(t *testing.T) {
	// 5 single + C(5,2)=10 pairs.
	if got := len(DefaultSubsets()); got != 15 {
		t.Fatalf("DefaultSubsets = %d, want 15", got)
	}
}

func TestSpecializedTreeAnswersQueriesCorrectly(t *testing.T) {
	set := testCorpus(t, 500, 127)
	units := PlaceSemantic(set.Files, 8, set.Norm, metadata.AllAttrs())
	subsets := [][]metadata.Attr{{metadata.AttrSize}}
	f := AutoConfigure(units, set.Norm, Config{}, subsets, 0.0001)
	for _, tr := range append([]*Tree{f.Full}, f.Specialized...) {
		if tr.TotalFiles() != 500 {
			t.Fatalf("tree %v holds %d files, want 500", tr.Attrs, tr.TotalFiles())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %v invalid: %v", tr.Attrs, err)
		}
	}
}
