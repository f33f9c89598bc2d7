// Package semtree implements SmartStore's core contribution: the
// semantic R-tree (paper §2–§4). File metadata is aggregated into
// storage units (leaf nodes) by semantic correlation, storage units are
// recursively grouped into index units (non-leaf nodes) with LSI-driven
// admission thresholds, and every tree node carries both a Minimum
// Bounding Rectangle over the full attribute space (for complex
// queries) and a Bloom filter over filenames (for point queries).
package semtree

import (
	"math"

	"repro/internal/bloom"
	"repro/internal/metadata"
	"repro/internal/rtree"
)

// StorageUnit is a leaf of the semantic R-tree: one metadata server's
// share of the file population (§2.3 "Each metadata server is a leaf
// node in our semantic R-tree").
type StorageUnit struct {
	ID    int
	Files []*metadata.File

	byPath map[string][]*metadata.File
	filter *bloom.Filter
	mbr    rtree.Rect
	hasMBR bool
}

// NewStorageUnit creates a unit with the given files (which may be
// empty). The Bloom filter uses the §5.1 prototype geometry.
func NewStorageUnit(id int, files []*metadata.File) *StorageUnit {
	u := &StorageUnit{
		ID:     id,
		byPath: make(map[string][]*metadata.File, len(files)),
		filter: bloom.NewDefault(),
	}
	for _, f := range files {
		u.addFile(f)
	}
	return u
}

func (u *StorageUnit) addFile(f *metadata.File) {
	u.Files = append(u.Files, f)
	u.byPath[f.Path] = append(u.byPath[f.Path], f)
	u.filter.Add(f.Path)
	r := fileRect(f)
	if !u.hasMBR {
		u.mbr = r
		u.hasMBR = true
	} else {
		u.mbr.Expand(r)
	}
}

// AddFile inserts f into the unit, updating the Bloom filter and MBR.
func (u *StorageUnit) AddFile(f *metadata.File) { u.addFile(f) }

// RemoveFile removes the file with the given id, returning it, or nil
// when it was absent. The Bloom filter intentionally retains the name
// (Bloom filters cannot delete); §5.4.1 accounts the resulting false
// positives. The MBR is recomputed exactly.
func (u *StorageUnit) RemoveFile(id uint64) *metadata.File {
	for i, f := range u.Files {
		if f.ID != id {
			continue
		}
		u.Files = append(u.Files[:i], u.Files[i+1:]...)
		paths := u.byPath[f.Path]
		for j, pf := range paths {
			if pf.ID == id {
				u.byPath[f.Path] = append(paths[:j], paths[j+1:]...)
				break
			}
		}
		if len(u.byPath[f.Path]) == 0 {
			delete(u.byPath, f.Path)
		}
		u.recomputeMBR()
		return f
	}
	return nil
}

func (u *StorageUnit) recomputeMBR() {
	u.hasMBR = false
	for _, f := range u.Files {
		r := fileRect(f)
		if !u.hasMBR {
			u.mbr = r
			u.hasMBR = true
		} else {
			u.mbr.Expand(r)
		}
	}
}

// Len returns the number of files stored.
func (u *StorageUnit) Len() int { return len(u.Files) }

// Filter returns the unit's Bloom filter.
func (u *StorageUnit) Filter() *bloom.Filter { return u.filter }

// MBR returns the unit's bounding rectangle over the full attribute
// space, and whether the unit is non-empty.
func (u *StorageUnit) MBR() (rtree.Rect, bool) { return u.mbr, u.hasMBR }

// LookupPath returns the files stored under the exact path.
func (u *StorageUnit) LookupPath(path string) []*metadata.File {
	return u.byPath[path]
}

// MayContain reports whether the Bloom filter admits the path.
func (u *StorageUnit) MayContain(path string) bool {
	return u.filter.Contains(path)
}

// Vector returns the unit's semantic vector: the centroid of its files'
// normalized attribute vectors over attrs (§3.1.2 "a semantic vector
// with d attributes is constructed ... to represent each of the N
// metadata nodes"). Empty units yield a zero vector.
func (u *StorageUnit) Vector(n *metadata.Normalizer, attrs []metadata.Attr) []float64 {
	if c := metadata.Centroid(n, u.Files, attrs); c != nil {
		return c
	}
	return make([]float64, len(attrs))
}

// SizeBytes estimates the unit's index-side memory footprint (filter +
// MBR + per-file path map overhead), used in Fig. 7. File metadata
// itself is payload, not index, and is excluded.
func (u *StorageUnit) SizeBytes() int {
	return u.filter.SizeBytes() + 16*int(metadata.NumAttrs) + 24*len(u.Files)
}

// fileRect returns the degenerate full-attribute-space rectangle of a
// single file.
func fileRect(f *metadata.File) rtree.Rect {
	p := make([]float64, metadata.NumAttrs)
	for a := 0; a < int(metadata.NumAttrs); a++ {
		p[a] = f.Attrs[a]
	}
	return rtree.PointRect(p)
}

// queryRect lifts a range query on a subset of attributes into the full
// D-dimensional attribute space, leaving unqueried dimensions unbounded.
func queryRect(attrs []metadata.Attr, lo, hi []float64) rtree.Rect {
	l := make([]float64, metadata.NumAttrs)
	h := make([]float64, metadata.NumAttrs)
	for a := range l {
		l[a] = math.Inf(-1)
		h[a] = math.Inf(1)
	}
	for i, a := range attrs {
		l[a], h[a] = lo[i], hi[i]
	}
	return rtree.Rect{Lo: l, Hi: h}
}

// normalizedMinDist returns the minimum normalized-space Euclidean
// distance from the query point (raw units, over attrs) to the MBR.
func normalizedMinDist(n *metadata.Normalizer, r rtree.Rect, attrs []metadata.Attr, point []float64) float64 {
	var s float64
	for i, a := range attrs {
		v := n.Value(a, point[i])
		lo := n.Value(a, r.Lo[a])
		hi := n.Value(a, r.Hi[a])
		var d float64
		switch {
		case v < lo:
			d = lo - v
		case v > hi:
			d = v - hi
		}
		s += d * d
	}
	return math.Sqrt(s)
}
