// Package metadata defines the file-metadata model of the reproduction:
// D-dimensional attribute vectors combining the physical attributes
// (file size, creation time, last modification time) and behavioural
// attributes (read/write volume, access frequency) the paper groups and
// queries over (§2.3, §3.1.1), plus the normalization used to form
// semantic vectors.
package metadata

import (
	"fmt"
	"math"
)

// Attr identifies one metadata attribute dimension.
type Attr int

// The attribute schema. The paper's examples use creation time, file
// size, last-modification time, and the read/write volumes ("amount of
// read data ranging from 30MB to 50MB"); access frequency is the
// behavioural attribute driving Nexus/FARMER-style correlation.
const (
	AttrSize       Attr = iota // file size in bytes
	AttrCTime                  // creation time, seconds since trace start
	AttrMTime                  // last modification time, seconds since trace start
	AttrATime                  // last access time, seconds since trace start
	AttrReadBytes              // cumulative bytes read
	AttrWriteBytes             // cumulative bytes written
	AttrAccessFreq             // number of accesses observed
	NumAttrs                   // D: the total number of dimensions
)

var attrNames = [NumAttrs]string{
	"size", "ctime", "mtime", "atime", "read_bytes", "write_bytes", "access_freq",
}

// String returns the attribute's short name.
func (a Attr) String() string {
	if a >= 0 && a < NumAttrs {
		return attrNames[a]
	}
	return fmt.Sprintf("attr(%d)", int(a))
}

// ParseAttr resolves an attribute's short name to its Attr — the
// inverse of String, used by wire formats and CLIs.
func ParseAttr(name string) (Attr, error) {
	for a, n := range attrNames {
		if n == name {
			return Attr(a), nil
		}
	}
	return 0, fmt.Errorf("metadata: unknown attribute %q", name)
}

// AllAttrs returns the full D-dimensional attribute subset.
func AllAttrs() []Attr {
	out := make([]Attr, NumAttrs)
	for i := range out {
		out[i] = Attr(i)
	}
	return out
}

// File is one file's metadata record: the unit SmartStore groups,
// indexes and returns from queries.
type File struct {
	ID       uint64
	Path     string
	SubTrace int // TIF sub-trace id (0 for the original trace)
	Attrs    [NumAttrs]float64
}

// Normalizer rescales each attribute to [0,1] over an observed corpus so
// Euclidean distances and LSI correlations are not dominated by large-
// magnitude attributes (bytes vs seconds vs counts).
type Normalizer struct {
	Lo, Hi [NumAttrs]float64
	fitted bool
}

// Fit computes per-attribute bounds over files. Fitting an empty corpus
// leaves the normalizer as identity.
func (n *Normalizer) Fit(files []*File) {
	if len(files) == 0 {
		return
	}
	for a := 0; a < int(NumAttrs); a++ {
		n.Lo[a] = math.Inf(1)
		n.Hi[a] = math.Inf(-1)
	}
	for _, f := range files {
		for a := 0; a < int(NumAttrs); a++ {
			v := f.Attrs[a]
			if v < n.Lo[a] {
				n.Lo[a] = v
			}
			if v > n.Hi[a] {
				n.Hi[a] = v
			}
		}
	}
	n.fitted = true
}

// Fitted reports whether Fit has been called on a non-empty corpus.
func (n *Normalizer) Fitted() bool { return n.fitted }

// RestoreNormalizer reconstructs a fitted normalizer from persisted
// bounds (snapshot restore). fitted=false yields the identity
// normalizer regardless of bounds.
func RestoreNormalizer(lo, hi [NumAttrs]float64, fitted bool) *Normalizer {
	return &Normalizer{Lo: lo, Hi: hi, fitted: fitted}
}

// Value normalizes a single attribute value to [0,1] (clamped).
func (n *Normalizer) Value(a Attr, v float64) float64 {
	if !n.fitted {
		return v
	}
	span := n.Hi[a] - n.Lo[a]
	if span <= 0 {
		return 0
	}
	x := (v - n.Lo[a]) / span
	if math.IsInf(span, 1) {
		// Avoid Inf/Inf → NaN on astronomically wide fitted ranges:
		// divide both operands by span separately.
		x = v/span - n.Lo[a]/span
	}
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// Vector normalizes a file's values over the attribute subset.
func (n *Normalizer) Vector(f *File, attrs []Attr) []float64 {
	v := make([]float64, len(attrs))
	for i, a := range attrs {
		v[i] = n.Value(a, f.Attrs[a])
	}
	return v
}

// Bounds returns the fitted [lo,hi] for attribute a in raw units.
func (n *Normalizer) Bounds(a Attr) (lo, hi float64) { return n.Lo[a], n.Hi[a] }

// Centroid returns the arithmetic mean of the files' normalized vectors
// over attrs — the group centroid Ci of the semantic-correlation measure
// in §1.1. It returns nil for an empty set.
func Centroid(n *Normalizer, files []*File, attrs []Attr) []float64 {
	if len(files) == 0 {
		return nil
	}
	c := make([]float64, len(attrs))
	for _, f := range files {
		v := n.Vector(f, attrs)
		for i := range c {
			c[i] += v[i]
		}
	}
	inv := 1 / float64(len(files))
	for i := range c {
		c[i] *= inv
	}
	return c
}

// SumSquaredError returns Σ_f (f − centroid)² over the files' normalized
// vectors — the per-group term of the semantic correlation objective
// Σᵢ Σ_{fj∈Gi} (fj − Ci)² that §5.5 minimizes to find optimal thresholds.
func SumSquaredError(n *Normalizer, files []*File, attrs []Attr) float64 {
	c := Centroid(n, files, attrs)
	if c == nil {
		return 0
	}
	var sse float64
	for _, f := range files {
		v := n.Vector(f, attrs)
		for i := range c {
			d := v[i] - c[i]
			sse += d * d
		}
	}
	return sse
}

// SizeBytes estimates the in-memory footprint of one metadata record for
// the Fig. 7 space accounting: attributes + id + path bytes + header.
func (f *File) SizeBytes() int {
	return 8*int(NumAttrs) + 8 + len(f.Path) + 32
}
