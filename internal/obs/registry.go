package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric naming convention (DESIGN.md §8): every series is
// smartstore_<subsystem>_<what>_<unit>, durations are exposed in
// seconds (recorded in nanoseconds, scaled at exposition with
// ScaleNanos), sizes in bytes, everything else unitless counts.
// Labels are static at registration time — there is no dynamic label
// creation, so cardinality is bounded by what the code registers.

// ScaleNanos converts nanosecond-recorded histogram values to the
// seconds Prometheus expects for duration metrics.
const ScaleNanos = 1e-9

// kind is the exposition TYPE of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled sample source inside a family.
type series struct {
	labels string // pre-rendered, e.g. `endpoint="query"`; "" for none
	value  func() float64
	hist   *Histogram
	scale  float64
}

// family is one metric name: its metadata plus every labeled series
// registered under it.
type family struct {
	name   string
	help   string
	kind   kind
	series []series
}

// Registry holds the process's metric families and renders them in
// Prometheus text exposition format 0.0.4. Registration happens at
// wiring time (server/store construction); WritePrometheus may be
// called concurrently with registration and with the hot paths that
// move the underlying atomics.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help string, k kind, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, k))
	}
	f.series = append(f.series, s)
}

// Labels renders label pairs into the canonical exposition form,
// sorted by key: Labels("shard", "0", "op", "insert") →
// `op="insert",shard="0"`. Use the result as the labels argument of
// the Register* methods.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels requires key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// RegisterCounter exposes c as a counter series.
func (r *Registry) RegisterCounter(name, labels, help string, c *Counter) {
	r.add(name, help, kindCounter, series{labels: labels, value: func() float64 { return float64(c.Load()) }})
}

// RegisterCounterFunc exposes f as a counter series; f must be
// monotonically non-decreasing and safe to call concurrently.
func (r *Registry) RegisterCounterFunc(name, labels, help string, f func() float64) {
	r.add(name, help, kindCounter, series{labels: labels, value: f})
}

// RegisterGaugeFunc exposes f as a gauge series; f must be safe to
// call concurrently.
func (r *Registry) RegisterGaugeFunc(name, labels, help string, f func() float64) {
	r.add(name, help, kindGauge, series{labels: labels, value: f})
}

// RegisterHistogram exposes h as a histogram series. scale multiplies
// recorded units into exposed units (ScaleNanos for ns→s durations, 1
// for plain counts).
func (r *Registry) RegisterHistogram(name, labels, help string, scale float64, h *Histogram) {
	if scale == 0 {
		scale = 1
	}
	r.add(name, help, kindHistogram, series{labels: labels, hist: h, scale: scale})
}

// snapshotFamilies copies the family list under the lock so exposition
// can run without holding it while calling value funcs (which may take
// their own locks, e.g. cache stats).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	return out
}

// WritePrometheus renders every registered family in text exposition
// format 0.0.4, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		// Series membership only grows, and appends happen-before any
		// scrape that should see them (wiring precedes serving); reading
		// len once keeps the loop stable if a late registration races.
		r.mu.Lock()
		ss := f.series[:len(f.series):len(f.series)]
		r.mu.Unlock()
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			if f.kind == kindHistogram {
				writeHistogram(bw, f.name, s)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(s.labels), formatFloat(s.value()))
		}
	}
	return bw.Flush()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative bucket series, _sum and _count
// for one histogram. Only non-empty buckets get an explicit le line —
// a valid subset under the exposition format, and it keeps a scrape of
// many sparse histograms compact — with the mandatory +Inf closing the
// series.
func writeHistogram(bw *bufio.Writer, name string, s series) {
	snap := s.hist.Snapshot()
	var cum uint64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if i == HistBuckets-1 {
			continue // overflow bucket counts only toward +Inf
		}
		le := formatFloat(BucketBound(i) * s.scale)
		fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(s.labels), le, cum)
	}
	// _count is the bucket total, not the separate count atomic: the
	// snapshot is not atomic across fields, and the exposition invariant
	// bucket{+Inf} == _count must hold on every scrape.
	fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(s.labels), cum)
	fmt.Fprintf(bw, "%s_sum%s %s\n", name, braced(s.labels), formatFloat(float64(snap.Sum)*s.scale))
	fmt.Fprintf(bw, "%s_count%s %d\n", name, braced(s.labels), cum)
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}
