// Package rtree implements a classical Guttman R-tree over
// D-dimensional rectangles: insertion with quadratic split, deletion
// with condensing, range search, and branch-and-bound k-nearest-
// neighbour search.
//
// It serves two roles in the reproduction: the paper's non-semantic
// "R-tree" baseline system uses it directly as a centralized
// multi-dimensional index (§5.1), and the semantic R-tree (package
// semtree) reuses its Minimum Bounding Rectangle algebra (§2.1).
package rtree

import (
	"fmt"
	"math"
)

// Rect is a D-dimensional axis-aligned rectangle: the Minimum Bounding
// Rectangle of §2.2, "the minimal approximation of the enclosed data set
// ... showing the lower and the upper bounds of each dimension".
type Rect struct {
	Lo, Hi []float64
}

// NewRect builds a rectangle from bounds, normalizing each dimension so
// Lo ≤ Hi. It panics if the slices' lengths differ or are zero.
func NewRect(lo, hi []float64) Rect {
	if len(lo) != len(hi) || len(lo) == 0 {
		panic(fmt.Sprintf("rtree: invalid rect bounds %d/%d", len(lo), len(hi)))
	}
	l := make([]float64, len(lo))
	h := make([]float64, len(hi))
	for i := range lo {
		l[i], h[i] = lo[i], hi[i]
		if l[i] > h[i] {
			l[i], h[i] = h[i], l[i]
		}
	}
	return Rect{Lo: l, Hi: h}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p []float64) Rect {
	return NewRect(p, p)
}

// Dims returns the dimensionality of r.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{
		Lo: append([]float64(nil), r.Lo...),
		Hi: append([]float64(nil), r.Hi...),
	}
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s overlap (inclusive of boundaries).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if s.Hi[i] < r.Lo[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Expand grows r in place to cover s.
func (r *Rect) Expand(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Area returns the D-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Enlargement returns how much r's area grows if expanded to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance from point p to r
// (0 when p is inside) — the branch-and-bound lower bound for k-NN.
func (r Rect) MinDist(p []float64) float64 {
	var s float64
	for i := range r.Lo {
		var d float64
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		s += d * d
	}
	return math.Sqrt(s)
}
