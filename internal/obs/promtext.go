package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal parser for Prometheus text exposition format 0.0.4 — just
// enough to round-trip what the registry writes. It is the shared
// consumer behind `smartctl metrics` (validating, pretty-printing) and
// the exposition-validity tests, so the project needs no external
// Prometheus dependency.

// Sample is one parsed sample line. For histograms the Name keeps its
// _bucket/_sum/_count suffix and bucket samples carry their "le" label.
type Sample struct {
	Name   string            // full sample name, suffixes included (_bucket, _sum, ...)
	Labels map[string]string // label set, nil when unlabelled
	Value  float64           // parsed sample value
}

// Family is one parsed metric family: its TYPE/HELP metadata and every
// sample attributed to it.
type Family struct {
	Name    string   // family name from the # TYPE line
	Help    string   // # HELP text, possibly empty
	Type    string   // "counter", "gauge" or "histogram"
	Samples []Sample // every sample line of the family, in order
}

// ParsePrometheus parses text exposition format and validates what it
// can: sample lines must parse, every sample must belong to a declared
// family, and histogram families must be internally coherent (bucket
// counts cumulative and non-decreasing, a +Inf bucket present and equal
// to _count, per label set). Families are returned in declaration
// order.
func ParsePrometheus(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var fams []Family
	byName := make(map[string]*Family)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMeta(line, &fams, byName); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		f := familyFor(s.Name, byName)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %s has no # TYPE declaration", lineno, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, len(fams))
	for i := range fams {
		out[i] = *byName[fams[i].Name]
		if out[i].Type == "histogram" {
			if err := checkHistogram(out[i]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func parseMeta(line string, fams *[]Family, byName map[string]*Family) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if byName[name] != nil {
			if byName[name].Type != "" {
				return fmt.Errorf("duplicate TYPE for %s", name)
			}
			byName[name].Type = typ
			return nil
		}
		f := &Family{Name: name, Type: typ}
		byName[name] = f
		*fams = append(*fams, Family{Name: name})
	case "HELP":
		name := fields[2]
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		if byName[name] == nil {
			byName[name] = &Family{Name: name, Help: help}
			*fams = append(*fams, Family{Name: name})
		} else {
			byName[name].Help = help
		}
	}
	return nil
}

// familyFor resolves a sample name to its declared family, stripping
// histogram suffixes.
func familyFor(name string, byName map[string]*Family) *Family {
	if f := byName[name]; f != nil {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := byName[base]; f != nil && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	// A timestamp may trail the value; take the first field.
	val := strings.Fields(rest)
	if len(val) == 0 {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := parseValue(val[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(name string) bool {
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parseLabels(s string, out map[string]string) error {
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		out[key] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	return nil
}

// checkHistogram validates cumulative-bucket coherence per label set.
func checkHistogram(f Family) error {
	type state struct {
		lastLe, lastCum float64
		inf, count      float64
		hasInf, hasCnt  bool
	}
	states := map[string]*state{}
	key := func(labels map[string]string) string {
		kv := make([]string, 0, len(labels))
		for k, v := range labels {
			if k == "le" {
				continue
			}
			kv = append(kv, k+"="+v)
		}
		sort.Strings(kv)
		return strings.Join(kv, ",")
	}
	get := func(labels map[string]string) *state {
		k := key(labels)
		st := states[k]
		if st == nil {
			st = &state{lastLe: math.Inf(-1)}
			states[k] = st
		}
		return st
	}
	for _, s := range f.Samples {
		st := get(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, err := parseValue(s.Labels["le"])
			if err != nil {
				return fmt.Errorf("%s: bad le %q", f.Name, s.Labels["le"])
			}
			if math.IsInf(le, 1) {
				st.inf, st.hasInf = s.Value, true
				continue
			}
			if le <= st.lastLe {
				return fmt.Errorf("%s: le %v out of order", f.Name, le)
			}
			if s.Value < st.lastCum {
				return fmt.Errorf("%s: bucket counts not cumulative at le %v", f.Name, le)
			}
			st.lastLe, st.lastCum = le, s.Value
		case strings.HasSuffix(s.Name, "_count"):
			st.count, st.hasCnt = s.Value, true
		}
	}
	for k, st := range states {
		if !st.hasInf {
			return fmt.Errorf("%s{%s}: missing +Inf bucket", f.Name, k)
		}
		if st.inf < st.lastCum {
			return fmt.Errorf("%s{%s}: +Inf bucket below last cumulative count", f.Name, k)
		}
		if st.hasCnt && st.count != st.inf {
			return fmt.Errorf("%s{%s}: _count %v != +Inf bucket %v", f.Name, k, st.count, st.inf)
		}
	}
	return nil
}

// BucketQuantile extracts the p-quantile from parsed _bucket samples of
// one label set (cumulative counts, ascending le, +Inf included), in
// exposed units — the scrape-side mirror of HistSnapshot.Quantile.
func BucketQuantile(buckets []Sample, p float64) float64 {
	type edge struct{ le, cum float64 }
	edges := make([]edge, 0, len(buckets))
	for _, b := range buckets {
		le, err := parseValue(b.Labels["le"])
		if err != nil {
			continue
		}
		edges = append(edges, edge{le, b.Value})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })
	if len(edges) == 0 {
		return 0
	}
	total := edges[len(edges)-1].cum
	if total == 0 {
		return 0
	}
	target := p * total
	if target < 1 {
		target = 1
	}
	prevLe, prevCum := 0.0, 0.0
	for _, e := range edges {
		if e.cum >= target {
			if math.IsInf(e.le, 1) {
				return prevLe
			}
			if e.cum == prevCum {
				return e.le
			}
			return prevLe + (e.le-prevLe)*(target-prevCum)/(e.cum-prevCum)
		}
		prevLe, prevCum = e.le, e.cum
	}
	return prevLe
}

// FindFamily returns the named family from a parse result, or nil.
func FindFamily(fams []Family, name string) *Family {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}
