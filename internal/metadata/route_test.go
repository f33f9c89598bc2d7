package metadata

import (
	"reflect"
	"testing"
)

// routeNorm maps mtime and read_bytes from [0,100] onto [0,1].
func routeNorm() *Normalizer {
	var lo, hi [NumAttrs]float64
	hi[AttrMTime], hi[AttrReadBytes] = 100, 100
	return RestoreNormalizer(lo, hi, true)
}

func TestNearestCentroids(t *testing.T) {
	placement := []Attr{AttrMTime, AttrReadBytes}
	// Children 0 and 2 coincide, and 1 and 3 are equidistant from
	// mtime=50: every cut of the ranking falls on a tie.
	four := [][]float64{{0.5, 0.1}, {0.2, 0.9}, {0.5, 0.1}, {0.8, 0.9}}
	for _, tc := range []struct {
		name      string
		centroids [][]float64
		attrs     []Attr
		point     []float64
		max       int
		want      []int
	}{
		{"tie at the cut keeps the lower position", four, []Attr{AttrMTime}, []float64{50}, 1, []int{0}},
		{"coinciding children both rank first", four, []Attr{AttrMTime}, []float64{50}, 2, []int{0, 2}},
		{"equidistant children break by position", four, []Attr{AttrMTime}, []float64{50}, 3, []int{0, 1, 2}},
		{"answer is ascending, not by rank", four, []Attr{AttrMTime}, []float64{90}, 2, []int{0, 3}},
		{"max = n is everyone", four, []Attr{AttrMTime}, []float64{90}, 4, []int{0, 1, 2, 3}},
		{"max > n is everyone", four, []Attr{AttrMTime}, []float64{90}, 9, []int{0, 1, 2, 3}},
		{"no shared dimension is everyone", four, []Attr{AttrSize}, []float64{4096}, 1, []int{0, 1, 2, 3}},
		{"unshared attributes are ignored", four, []Attr{AttrSize, AttrReadBytes}, []float64{4096, 95}, 1, []int{1}},
		{"second placement dimension", four, []Attr{AttrReadBytes}, []float64{5}, 2, []int{0, 2}},
		// The gateway passes only its healthy members' centroids; the
		// answer indexes that list (here members 1 and 3 of the four).
		{"subset positions index the subset", [][]float64{four[1], four[3]}, []Attr{AttrMTime}, []float64{90}, 1, []int{1}},
		{"subset tie keeps the lower position", [][]float64{four[1], four[3]}, []Attr{AttrMTime}, []float64{50}, 1, []int{0}},
		{"a centroid shorter than the predicate scores its dimensions only",
			[][]float64{{0.5}, {0.45, 0.9}}, []Attr{AttrMTime, AttrReadBytes}, []float64{50, 0}, 1, []int{0}},
	} {
		got := NearestCentroids(routeNorm(), placement, tc.centroids, tc.attrs, tc.point, tc.max)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNearestCentroid(t *testing.T) {
	for _, tc := range []struct {
		name      string
		centroids [][]float64
		v         []float64
		want      int
	}{
		{"nearest wins", [][]float64{{0.1, 0.1}, {0.6, 0.6}, {0.9, 0.9}}, []float64{0.7, 0.5}, 1},
		{"tie keeps the lower position", [][]float64{{0.9, 0.9}, {0.4, 0.6}, {0.6, 0.4}}, []float64{0.5, 0.5}, 1},
		{"single child", [][]float64{{0.3, 0.3}}, []float64{1, 1}, 0},
		{"dimensions a centroid lacks score nothing", [][]float64{{0.5, 0.5}, {0.45}}, []float64{0.5, 0.9}, 1},
	} {
		if got := NearestCentroid(tc.centroids, tc.v); got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestOfflineFanout(t *testing.T) {
	for _, tc := range []struct{ n, budget, want int }{
		{1, 0, 1}, {2, 0, 1}, {3, 0, 1}, {4, 0, 2}, {8, 0, 3}, {16, 0, 5},
		{4, 1, 1}, {4, 3, 3}, {4, 4, 4}, {4, 9, 4},
	} {
		if got := OfflineFanout(tc.n, tc.budget); got != tc.want {
			t.Errorf("OfflineFanout(%d, %d) = %d, want %d", tc.n, tc.budget, got, tc.want)
		}
	}
}
