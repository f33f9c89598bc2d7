// Package trace synthesizes the three file-system workloads the paper
// evaluates on — HP [17], MSN [18] and EECS [19] — and implements the
// trace scale-up mechanism of §5.1.
//
// The original traces are proprietary, so each Spec carries the
// published summary statistics (Tables 1–3) and a generator that
// produces a sampled population whose attribute marginals reproduce the
// characteristics the evaluation depends on: Zipf-skewed file
// popularity ("fewer than 1% clients issue 50% file requests"),
// lognormal file sizes, directory-skewed namespaces (locality ratios
// below 1%), and bursty temporal locality ("over 60% re-open operations
// take place within one minute").
//
// Scale-up follows §5.1 exactly: a trace is decomposed into TIF
// sub-traces, each file gains a unique sub-trace ID, all sub-traces
// start at time zero and replay concurrently, preserving chronological
// order within each sub-trace.
package trace

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/stats"
)

// Spec describes one of the paper's source traces: its published
// statistics plus the generator parameters tuned to reproduce them.
type Spec struct {
	Name string // trace name: "HP", "MSN" or "EECS"
	// Published original statistics (Tables 1–3), in the units the
	// paper reports.
	Stats []Stat
	// DefaultTIF is the Trace Intensifying Factor used in the paper's
	// scale-up table for this trace.
	DefaultTIF int
	// NominalFiles is the published file-population size of the original
	// (unscaled) trace. The cost model's virtual-population scaling maps
	// an in-memory sample onto NominalFiles × TIF records.
	NominalFiles float64

	// Generator parameters.
	Users        int     // distinct users (directory roots)
	DirsPerUser  int     // project/home subdirectories per user
	SizeMu       float64 // lognormal log-mean of file size (bytes)
	SizeSigma    float64 // lognormal log-sigma
	DurationSec  float64 // trace duration in seconds
	ReadFrac     float64 // fraction of requests that are reads
	MeanIOBytes  float64 // mean bytes moved per request
	PopularSkew  float64 // Zipf skew of file popularity
	ReqPerFile   float64 // average requests per file in the sample
	ReopenBursty float64 // fraction of accesses that are <1min re-opens
}

// Stat is a single row of a trace-characteristics table: original value
// and its TIF-scaled counterpart.
type Stat struct {
	Label    string  // what the row measures, as the paper names it
	Original float64 // published value
	Scaled   float64 // value after TIF scale-up
	Unit     string  // reporting unit ("M", "GB", ...)
}

// HP returns the HP trace spec (Table 1: 94.7M requests, 32 active
// users, 207 accounts, 0.969M active / 4M total files; TIF=80).
func HP() *Spec {
	return &Spec{
		Name:         "HP",
		DefaultTIF:   80,
		NominalFiles: 4e6, // Table 1: 4M total files
		Stats: []Stat{
			{"request", 94.7, 7576, "million"},
			{"active users", 32, 2560, ""},
			{"user accounts", 207, 16560, ""},
			{"active files", 0.969, 77.52, "million"},
			{"total files", 4, 320, "million"},
		},
		Users:        207,
		DirsPerUser:  12,
		SizeMu:       9.5, // median ≈ 13 KB
		SizeSigma:    2.2,
		DurationSec:  10 * 24 * 3600,
		ReadFrac:     0.58,
		MeanIOBytes:  24 << 10,
		PopularSkew:  1.05,
		ReqPerFile:   23.7, // 94.7M requests / 4M files
		ReopenBursty: 0.6,
	}
}

// MSN returns the MSN trace spec (Table 2: 1.25M files, 3.30M reads,
// 1.17M writes, 6 hours, 4.47M total I/O; TIF=100).
func MSN() *Spec {
	return &Spec{
		Name:         "MSN",
		DefaultTIF:   100,
		NominalFiles: 1.25e6, // Table 2: 1.25M files
		Stats: []Stat{
			{"# of files", 1.25, 125, "million"},
			{"total READ", 3.30, 330, "million"},
			{"total WRITE", 1.17, 117, "million"},
			{"duration", 6, 600, "hours"},
			{"total I/O", 4.47, 447, "million"},
		},
		Users:        64,
		DirsPerUser:  20,
		SizeMu:       10.4, // production server files, median ≈ 33 KB
		SizeSigma:    1.9,
		DurationSec:  6 * 3600,
		ReadFrac:     3.30 / 4.47,
		MeanIOBytes:  56 << 10,
		PopularSkew:  1.2,
		ReqPerFile:   4.47 / 1.25,
		ReopenBursty: 0.65,
	}
}

// EECS returns the EECS NFS trace spec (Table 3: 0.46M reads / 5.1GB,
// 0.667M writes / 9.1GB, 4.44M total operations; TIF=150).
func EECS() *Spec {
	return &Spec{
		Name:         "EECS",
		DefaultTIF:   150,
		NominalFiles: 0.74e6, // ≈ 4.44M operations (Table 3) / ~6 req/file
		Stats: []Stat{
			{"total READ", 0.46, 69, "million"},
			{"READ size", 5.1, 765, "GB"},
			{"total WRITE", 0.667, 100.05, "million"},
			{"WRITE size", 9.1, 1365, "GB"},
			{"total operations", 4.44, 666, "million"},
		},
		Users:        140,
		DirsPerUser:  8,
		SizeMu:       8.9, // email + research workload, small files
		SizeSigma:    2.4,
		DurationSec:  30 * 24 * 3600,
		ReadFrac:     0.46 / (0.46 + 0.667),
		MeanIOBytes:  12 << 10,
		PopularSkew:  0.95,
		ReqPerFile:   6.0,
		ReopenBursty: 0.62,
	}
}

// Specs returns all three trace specs in the paper's order.
func Specs() []*Spec { return []*Spec{HP(), MSN(), EECS()} }

// ByName returns the spec with the given (case-sensitive) name.
func ByName(name string) (*Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("trace: unknown trace %q (want HP, MSN or EECS)", name)
}

// Set is a generated workload: the sampled file population with fully
// populated attributes, plus the normalizer fitted over it.
type Set struct {
	Spec  *Spec                // the trace this set was synthesized from
	TIF   int                  // trace-intensifying factor applied
	Files []*metadata.File     // the sampled population
	Norm  *metadata.Normalizer // normalizer fitted to the population
}

// Generate samples nFiles files from the spec's distributions and
// simulates the request stream over them so behavioural attributes
// (read/write volume, access frequency, atime/mtime) carry the trace's
// popularity skew and temporal locality. The result is deterministic in
// seed.
func (s *Spec) Generate(nFiles int, seed uint64) *Set {
	if nFiles <= 0 {
		panic(fmt.Sprintf("trace: nFiles %d must be positive", nFiles))
	}
	rng := stats.NewRNG(seed)
	files := make([]*metadata.File, nFiles)

	for i := range files {
		user := i % s.Users
		dir := rng.IntN(s.DirsPerUser)
		f := &metadata.File{
			ID:   uint64(i + 1),
			Path: fmt.Sprintf("/%s/u%03d/d%02d/f%07d.dat", s.Name, user, dir, i),
		}
		f.Attrs[metadata.AttrSize] = stats.Lognormal(rng, s.SizeMu, s.SizeSigma)
		// Creation times skew early: most of a trace's files pre-exist.
		ct := s.DurationSec * rng.Float64() * rng.Float64()
		f.Attrs[metadata.AttrCTime] = ct
		f.Attrs[metadata.AttrMTime] = ct
		f.Attrs[metadata.AttrATime] = ct
		files[i] = f
	}

	// Replay a request stream with Zipf popularity over a random
	// permutation of the population (so popularity is independent of
	// creation order).
	perm := rng.Perm(nFiles)
	zipf := stats.NewZipfGen(rng, s.PopularSkew, nFiles)
	nReq := int(float64(nFiles) * s.ReqPerFile)
	for r := 0; r < nReq; r++ {
		f := files[perm[zipf.Next()]]
		// Bursty temporal locality: re-opens arrive within a minute of
		// the previous access; cold accesses land anywhere after create.
		var at float64
		if f.Attrs[metadata.AttrAccessFreq] > 0 && rng.Float64() < s.ReopenBursty {
			at = f.Attrs[metadata.AttrATime] + rng.Float64()*60
		} else {
			at = f.Attrs[metadata.AttrCTime] +
				rng.Float64()*(s.DurationSec-f.Attrs[metadata.AttrCTime])
		}
		if at > s.DurationSec {
			at = s.DurationSec
		}
		f.Attrs[metadata.AttrATime] = at
		f.Attrs[metadata.AttrAccessFreq]++
		bytes := s.MeanIOBytes * (0.25 + 1.5*rng.Float64())
		if rng.Float64() < s.ReadFrac {
			f.Attrs[metadata.AttrReadBytes] += bytes
		} else {
			f.Attrs[metadata.AttrWriteBytes] += bytes
			f.Attrs[metadata.AttrMTime] = at
		}
	}

	set := &Set{Spec: s, TIF: 1, Files: files, Norm: &metadata.Normalizer{}}
	set.Norm.Fit(files)
	return set
}

// Scale applies the §5.1 scale-up: the set is decomposed into tif
// sub-traces replayed concurrently. Each replica file gains a unique
// sub-trace ID in its path and identity while keeping its attribute
// histogram; concurrent replay at time zero is modelled by keeping the
// time attributes unchanged. Scale(1) returns the set itself.
func (s *Set) Scale(tif int) *Set {
	if tif < 1 {
		panic(fmt.Sprintf("trace: TIF %d must be ≥ 1", tif))
	}
	if tif == 1 {
		return s
	}
	files := make([]*metadata.File, 0, len(s.Files)*tif)
	var id uint64
	for sub := 0; sub < tif; sub++ {
		for _, f := range s.Files {
			id++
			nf := &metadata.File{
				ID:       id,
				Path:     fmt.Sprintf("/sub%03d%s", sub, f.Path),
				SubTrace: sub,
				Attrs:    f.Attrs,
			}
			files = append(files, nf)
		}
	}
	out := &Set{Spec: s.Spec, TIF: tif, Files: files, Norm: &metadata.Normalizer{}}
	out.Norm.Fit(files)
	return out
}

// GenerateScaled is shorthand for Generate(baseFiles, seed).Scale(tif).
func (s *Spec) GenerateScaled(baseFiles, tif int, seed uint64) *Set {
	return s.Generate(baseFiles, seed).Scale(tif)
}

// QueryGen synthesizes complex queries over a generated set following
// §5.1: "statistically generate random queries in a multidimensional
// space ... derived from the available I/O traces". Query coordinates
// are anchored on the attribute values of a file drawn under the
// Uniform, Gauss, or Zipf distribution over the popularity-ordered
// population, so queries probe populated regions of the attribute space
// (raw random coordinates in an outlier-stretched space almost never
// match anything): Uniform anchors uniformly across all files, Gauss
// concentrates around the popularity median, and Zipf concentrates on
// the hot head — reproducing the paper's observation that "under a Zipf
// or Gauss distribution, files are mutually associated with a higher
// degree than under uniform distribution" (§5.4.2).
type QueryGen struct {
	set   *Set
	dist  stats.Distribution
	rng   *rand.Rand
	attrs []metadata.Attr
	byPop []*metadata.File // files ordered by descending access frequency
	zipf  *stats.ZipfGen
}

// DefaultQueryAttrs are the dimensions the paper's example queries use:
// last-revision time and read/write volumes ("revised between 10:00 and
// 16:20, read 30–50MB, written 5–8MB").
func DefaultQueryAttrs() []metadata.Attr {
	return []metadata.Attr{metadata.AttrMTime, metadata.AttrReadBytes, metadata.AttrWriteBytes}
}

// NewQueryGen builds a generator for the set under dist, deterministic
// in seed. attrs nil selects DefaultQueryAttrs.
func NewQueryGen(set *Set, dist stats.Distribution, attrs []metadata.Attr, seed uint64) *QueryGen {
	if attrs == nil {
		attrs = DefaultQueryAttrs()
	}
	rng := stats.NewRNG(seed)
	byPop := append([]*metadata.File(nil), set.Files...)
	sort.SliceStable(byPop, func(i, j int) bool {
		fi := byPop[i].Attrs[metadata.AttrAccessFreq]
		fj := byPop[j].Attrs[metadata.AttrAccessFreq]
		if fi != fj {
			return fi > fj
		}
		return byPop[i].ID < byPop[j].ID
	})
	g := &QueryGen{
		set:   set,
		dist:  dist,
		rng:   rng,
		attrs: attrs,
		byPop: byPop,
	}
	if dist == stats.Zipf {
		g.zipf = stats.NewZipfGen(rng, 1.1, len(byPop))
	}
	return g
}

// anchor draws the file whose attribute values seed the next query's
// coordinates, under the generator's distribution over the
// popularity-ordered population.
func (g *QueryGen) anchor() *metadata.File {
	n := len(g.byPop)
	var idx int
	switch g.dist {
	case stats.Zipf:
		idx = g.zipf.Next()
	case stats.Gauss:
		idx = int(float64(n)/2 + g.rng.NormFloat64()*float64(n)/6)
	default:
		idx = g.rng.IntN(n)
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return g.byPop[idx]
}

// Range draws one range query whose per-dimension windows cover the
// given fraction (0 < width ≤ 1) of each attribute's observed span,
// centred near the anchor file's attribute values.
func (g *QueryGen) Range(width float64) query.Range {
	f := g.anchor()
	lo := make([]float64, len(g.attrs))
	hi := make([]float64, len(g.attrs))
	for i, a := range g.attrs {
		alo, ahi := g.set.Norm.Bounds(a)
		span := ahi - alo
		w := span * width
		// Jitter the window so the anchor is not always dead-centre.
		centre := f.Attrs[a] + g.rng.NormFloat64()*w/4
		lo[i] = clampF(centre-w/2, alo, ahi-w)
		hi[i] = lo[i] + w
	}
	return query.NewRange(g.attrs, lo, hi)
}

// TopK draws one top-k query whose point is a jittered anchor.
func (g *QueryGen) TopK(k int) query.TopK {
	f := g.anchor()
	p := make([]float64, len(g.attrs))
	for i, a := range g.attrs {
		alo, ahi := g.set.Norm.Bounds(a)
		span := ahi - alo
		p[i] = clampF(f.Attrs[a]+g.rng.NormFloat64()*span*0.01, alo, ahi)
	}
	return query.NewTopK(g.attrs, p, k)
}

func clampF(v, lo, hi float64) float64 {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Point draws a filename point query. With probability hitRate the name
// is an existing file's path drawn with the trace's popularity skew
// approximated by uniform choice; otherwise it is an absent name.
func (g *QueryGen) Point(hitRate float64) query.Point {
	if g.rng.Float64() < hitRate {
		f := g.set.Files[g.rng.IntN(len(g.set.Files))]
		return query.Point{Filename: f.Path}
	}
	return query.Point{Filename: fmt.Sprintf("/absent/%d.tmp", g.rng.Uint64())}
}
