// Package stats supplies the statistical substrate of the evaluation:
// deterministic random sources, the Uniform / Gauss / Zipf samplers used
// to synthesize complex queries (paper §5.1), lognormal file-size
// distributions, summary statistics, and the Recall measure (§5.4.2).
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// NewRNG returns a deterministic PCG-backed random source for the given
// seed. All randomness in the reproduction flows from explicit seeds so
// every table and figure is reproducible run-to-run.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Distribution identifies one of the three query-coordinate distributions
// used in the paper's synthetic complex-query generator.
type Distribution int

const (
	// Uniform draws coordinates uniformly over the attribute range.
	Uniform Distribution = iota
	// Gauss draws coordinates from a normal centred mid-range with
	// σ = range/6, clamped to the range.
	Gauss
	// Zipf draws coordinates with Zipf-skewed preference toward the
	// dense (low) end of the attribute range, mirroring the skew of
	// real metadata attribute values.
	Zipf
)

// String returns the distribution name as used in the paper's tables.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "Uniform"
	case Gauss:
		return "Gauss"
	case Zipf:
		return "Zipf"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Distributions lists the three distributions in the order the paper's
// tables report them.
var Distributions = []Distribution{Uniform, Gauss, Zipf}

// ZipfGen draws integers in [0, n) with P(k) ∝ 1/(k+1)^s using inverse
// transform sampling over the precomputed CDF. It is valid for any s>0
// (unlike stdlib rand.Zipf which requires s>1).
type ZipfGen struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipfGen builds a Zipf sampler over n buckets with skew s.
func NewZipfGen(rng *rand.Rand, s float64, n int) *ZipfGen {
	if n <= 0 {
		panic("stats: ZipfGen needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &ZipfGen{rng: rng, cdf: cdf}
}

// Next draws the next Zipf-distributed integer in [0, n).
func (z *ZipfGen) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Lognormal draws a lognormal value with the given log-space mean and
// sigma — the standard model for file-size distributions.
func Lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// Recall computes |T ∩ A| / |T| as defined in §5.4.2, where truth and
// answer are sets of item identifiers. Recall of an empty truth set is 1
// (the query is vacuously answered).
func Recall(truth, answer []uint64) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[uint64]struct{}, len(answer))
	for _, a := range answer {
		in[a] = struct{}{}
	}
	hit := 0
	for _, t := range truth {
		if _, ok := in[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Summary aggregates a series of float64 observations.
type Summary struct {
	n   int
	sum float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Histogram counts observations into fixed integer buckets; bucket i
// counts values equal to i, with values ≥ len(counts)-1 clamped into the
// final bucket. It is used for the hop-distance distribution of Fig. 8.
type Histogram struct {
	counts []int
	total  int
}

// NewHistogram returns a histogram with n buckets (n ≥ 1).
func NewHistogram(n int) *Histogram {
	if n < 1 {
		panic("stats: histogram needs at least one bucket")
	}
	return &Histogram{counts: make([]int, n)}
}

// Add records integer observation v, clamping negatives to 0 and
// overflows into the last bucket.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Fraction returns bucket i's share of all observations, or 0 when empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}
