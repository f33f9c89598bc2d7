package semtree

import (
	"sort"

	"repro/internal/metadata"
)

// Forest is the outcome of automatic configuration (§2.4): one or more
// semantic R-trees over different attribute subsets, able to serve
// complex queries with unpredictable queried-attribute combinations.
// The full-D tree is always present as the fallback that "produce[s] a
// superset of the queried results" for attribute combinations no
// specialized tree covers.
type Forest struct {
	// Full is the tree over all D attributes.
	Full *Tree
	// Specialized maps attribute-subset keys to their trees.
	Specialized []*Tree
	// Threshold is the index-unit-count difference ratio above which a
	// candidate subset tree is considered "sufficiently different" and
	// kept (§5.1 sets it to 10%).
	Threshold float64
	// Considered and Kept count candidate subset trees for reporting.
	Considered, Kept int
}

// DefaultAutoConfigThreshold is the §5.1 prototype setting (10%).
const DefaultAutoConfigThreshold = 0.10

// AutoConfigure runs the automatic configuration of §2.4: it builds the
// full-D tree, then for every candidate attribute subset builds a
// candidate tree and keeps it only when its index-unit count NO(Id)
// differs from the full tree's NO(ID) by more than threshold·NO(ID).
// Subsets nil selects all single- and two-attribute combinations of the
// query attributes (the common query patterns of §2.4's example).
func AutoConfigure(units []*StorageUnit, norm *metadata.Normalizer, cfg Config,
	subsets [][]metadata.Attr, threshold float64) *Forest {

	if threshold <= 0 {
		threshold = DefaultAutoConfigThreshold
	}
	fullCfg := cfg
	fullCfg.Attrs = metadata.AllAttrs()
	full := Build(units, norm, fullCfg)
	_, fullIdx := full.CountNodes()

	if subsets == nil {
		subsets = DefaultSubsets()
	}

	f := &Forest{Full: full, Threshold: threshold}
	for _, attrs := range subsets {
		f.Considered++
		subCfg := cfg
		subCfg.Attrs = attrs
		cand := Build(cloneUnits(units), norm, subCfg)
		_, candIdx := cand.CountNodes()
		diff := candIdx - fullIdx
		if diff < 0 {
			diff = -diff
		}
		// |NO(ID) − NO(Id)| larger than the threshold ⇒ sufficiently
		// different grouping structure ⇒ keep; otherwise the candidate
		// is redundant with the full tree and is deleted (§2.4).
		if float64(diff) > threshold*float64(fullIdx) {
			f.Specialized = append(f.Specialized, cand)
			f.Kept++
		}
	}
	return f
}

// DefaultSubsets enumerates the single- and pair-attribute combinations
// over the default query attributes.
func DefaultSubsets() [][]metadata.Attr {
	qa := []metadata.Attr{
		metadata.AttrSize, metadata.AttrCTime, metadata.AttrMTime,
		metadata.AttrReadBytes, metadata.AttrWriteBytes,
	}
	var out [][]metadata.Attr
	for i := range qa {
		out = append(out, []metadata.Attr{qa[i]})
	}
	for i := range qa {
		for j := i + 1; j < len(qa); j++ {
			out = append(out, []metadata.Attr{qa[i], qa[j]})
		}
	}
	return out
}

// cloneUnits deep-copies storage units so each tree owns its leaves
// (index state is per-tree; file records are shared, matching the
// multi-R-tree replication cost the paper trades off in §2.4).
func cloneUnits(units []*StorageUnit) []*StorageUnit {
	out := make([]*StorageUnit, len(units))
	for i, u := range units {
		out[i] = NewStorageUnit(u.ID, u.Files)
	}
	return out
}

// SelectTree returns the forest member whose grouping attributes best
// match the queried attributes: the specialized tree with the largest
// overlap and no extraneous dimensions, else the full tree ("For a
// future query, SmartStore will obtain query results from the semantic
// R-tree that has the same or similar attributes", §2.4).
func (f *Forest) SelectTree(queried []metadata.Attr) *Tree {
	want := map[metadata.Attr]bool{}
	for _, a := range queried {
		want[a] = true
	}
	var best *Tree
	bestScore := -1
	for _, t := range f.Specialized {
		overlap := 0
		extraneous := false
		for _, a := range t.Attrs {
			if want[a] {
				overlap++
			} else {
				extraneous = true
			}
		}
		if extraneous || overlap == 0 {
			continue
		}
		if overlap > bestScore {
			best, bestScore = t, overlap
		}
	}
	if best != nil && bestScore == len(queried) {
		return best
	}
	if best != nil && bestScore > 0 && len(best.Attrs) <= len(queried) {
		return best
	}
	return f.Full
}

// SubsetKey renders an attribute subset as a stable string key.
func SubsetKey(attrs []metadata.Attr) string {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.String()
	}
	sort.Strings(names)
	key := names[0]
	for _, n := range names[1:] {
		key += "+" + n
	}
	return key
}
