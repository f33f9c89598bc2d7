// Command smartctl builds a SmartStore over a synthesized trace and runs
// ad-hoc queries against it — a small operational front-end to the
// library for exploration and demos. With -remote it routes the same
// verbs through a running smartstored daemon instead of building a
// local store, so one binary exercises both the library and the
// service path. Both paths run through the unified query API
// (Store.Do locally, POST /v1/query remotely), so the per-query
// options -records, -limit and -mode apply everywhere.
//
// Usage:
//
//	smartctl -trace MSN -files 5000 stats
//	smartctl -trace MSN -files 5000 point /MSN/u010/d03/f0000123.dat
//	smartctl -trace HP range mtime=3600:86400 read_bytes=3e7:5e7
//	smartctl -trace EECS -records topk 8 mtime=41000 read_bytes=2.68e7 write_bytes=6.57e7
//	smartctl -remote localhost:7070 stats
//	smartctl -remote localhost:7070 -records -limit 20 range mtime=3600:86400
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	traceName := flag.String("trace", "MSN", "trace to synthesize: HP, MSN or EECS")
	files := flag.Int("files", 5000, "sample population")
	units := flag.Int("units", 60, "storage units")
	seed := flag.Uint64("seed", 42, "random seed")
	versioning := flag.Bool("versioning", false, "enable consistency versioning")
	online := flag.Bool("online", false, "use the on-line multicast query path")
	loadPath := flag.String("load", "", "restore the store from a snapshot file instead of synthesizing")
	savePath := flag.String("save", "", "write the built store to a snapshot file before querying")
	remote := flag.String("remote", "", "route verbs through a smartstored daemon at this address")
	records := flag.Bool("records", false, "inline full file records in query answers")
	limit := flag.Int("limit", 0, "truncate query answers to at most this many ids (0 = unlimited)")
	queryMode := flag.String("mode", "", "per-query mode override: offline or online (empty = store default)")
	wireFlag := flag.String("wire", "auto", "remote query codec: auto (negotiate binary), json, or binary")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	opts, err := queryOptions(*records, *limit, *queryMode)
	if err != nil {
		fatal(err)
	}

	if args[0] == "metrics" && *remote == "" {
		fatal(fmt.Errorf("the metrics verb reads a daemon's /v1/metrics; it needs -remote"))
	}
	if *remote != "" {
		wireMode, err := client.ParseWireMode(*wireFlag)
		if err != nil {
			fatal(err)
		}
		runRemote(*remote, args, opts, wireMode)
		return
	}

	mode := smartstore.OffLine
	if *online {
		mode = smartstore.OnLine
	}
	var store *smartstore.Store
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		store, err = smartstore.Load(f, smartstore.Config{
			Seed: *seed, Versioning: *versioning, Mode: mode,
		})
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		set, err := smartstore.GenerateTrace(*traceName, *files, *seed)
		if err != nil {
			fatal(err)
		}
		store, err = smartstore.Build(set.Files, smartstore.Config{
			Units: *units, Seed: *seed, Versioning: *versioning, Mode: mode,
		})
		if err != nil {
			fatal(err)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := store.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if args[0] == "stats" {
		st := store.Stats()
		fmt.Printf("trace        %s (%d sampled files)\n", *traceName, st.Files)
		fmt.Printf("storage units %d\n", st.Units)
		fmt.Printf("index units   %d\n", st.IndexUnits)
		fmt.Printf("tree height   %d\n", st.TreeHeight)
		fmt.Printf("trees         %d\n", st.Trees)
		fmt.Printf("index bytes   %d total, %d per node\n", st.IndexBytesTotal, st.IndexBytesPerNode)
		return
	}

	q, err := parseQueryVerb(args, opts)
	if err != nil {
		fatal(err)
	}
	res, err := store.Do(context.Background(), q)
	if err != nil {
		fatal(err)
	}
	printLocal(q, res)
}

// queryOptions assembles the shared per-query options from flags.
func queryOptions(records bool, limit int, mode string) (smartstore.QueryOptions, error) {
	m, err := smartstore.ParseQueryMode(mode)
	if err != nil {
		return smartstore.QueryOptions{}, err
	}
	return smartstore.QueryOptions{Mode: m, Limit: limit, IncludeRecords: records}, nil
}

// parseQueryVerb builds the unified query from a CLI verb.
func parseQueryVerb(args []string, opts smartstore.QueryOptions) (smartstore.Query, error) {
	switch args[0] {
	case "point":
		if len(args) != 2 {
			usage()
		}
		return smartstore.NewPointQuery(args[1]).WithOptions(opts), nil
	case "range":
		attrs, lo, hi := parseRangeArgs(args[1:])
		return smartstore.NewRangeQuery(attrs, lo, hi).WithOptions(opts), nil
	case "topk":
		if len(args) < 3 {
			usage()
		}
		k, err := strconv.Atoi(args[1])
		if err != nil || k < 1 {
			return smartstore.Query{}, fmt.Errorf("invalid k %q", args[1])
		}
		attrs, point := parsePointArgs(args[2:])
		return smartstore.NewTopKQuery(attrs, point, k).WithOptions(opts), nil
	}
	usage()
	return smartstore.Query{}, nil
}

func printLocal(q smartstore.Query, res smartstore.Result) {
	fmt.Printf("%s: %d match(es) in %.6fs over %d message(s), %d hop(s)%s\n",
		q.Kind, len(res.IDs), res.Report.Latency, res.Report.Messages, res.Report.Hops,
		truncatedTag(res.Truncated))
	if len(res.Records) > 0 {
		for _, f := range res.Records {
			fmt.Printf("  id %-10d %s\n", f.ID, f.Path)
		}
		return
	}
	for _, id := range res.IDs {
		fmt.Printf("  id %d\n", id)
	}
}

// runRemote executes one verb against a smartstored daemon through the
// unified /v1/query endpoint.
func runRemote(addr string, args []string, opts smartstore.QueryOptions, wire client.WireMode) {
	cl := client.NewWithOptions(addr, client.Options{Wire: wire})
	if args[0] == "metrics" {
		printMetrics(cl)
		return
	}
	if args[0] == "stats" {
		st, err := cl.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("remote        %s (epoch %d)\n", addr, st.Store.Epoch)
		if st.Build.GoVersion != "" {
			ver := st.Build.Version
			if ver == "" {
				ver = "(devel)"
			}
			fmt.Printf("build         %s %s", ver, st.Build.GoVersion)
			if st.Build.Revision != "" {
				dirty := ""
				if st.Build.Dirty {
					dirty = "+dirty"
				}
				fmt.Printf(" rev %.12s%s", st.Build.Revision, dirty)
			}
			fmt.Println()
		}
		fmt.Printf("files         %d\n", st.Store.Files)
		fmt.Printf("storage units %d\n", st.Store.Units)
		fmt.Printf("index units   %d\n", st.Store.IndexUnits)
		fmt.Printf("tree height   %d\n", st.Store.TreeHeight)
		fmt.Printf("trees         %d\n", st.Store.Trees)
		fmt.Printf("index bytes   %d total, %d per node\n",
			st.Store.IndexBytesTotal, st.Store.IndexBytesPerNode)
		fmt.Printf("server        %d reqs (%d rejected), cache %d/%d entries, %d hits / %d misses\n",
			st.Server.Requests, st.Server.Rejected,
			st.Server.Cache.Entries, st.Server.Cache.MaxEntries,
			st.Server.Cache.Hits, st.Server.Cache.Misses)
		return
	}
	q, err := parseQueryVerb(args, opts)
	if err != nil {
		fatal(err)
	}
	resp, err := cl.Query(context.Background(), q)
	if err != nil {
		fatal(err)
	}
	printRemote(resp)
}

func printRemote(resp *server.QueryResponse) {
	fmt.Printf("%s: %d match(es) in %.6fs over %d message(s), %d hop(s)%s%s\n",
		resp.Kind, resp.Count, resp.Report.Latency, resp.Report.Messages, resp.Report.Hops,
		truncatedTag(resp.Truncated), cachedTag(resp.Cached))
	if len(resp.Records) > 0 {
		for _, rec := range resp.Records {
			fmt.Printf("  id %-10d %s\n", rec.ID, rec.Path)
		}
		return
	}
	for _, id := range resp.IDs {
		fmt.Printf("  id %d\n", id)
	}
}

func cachedTag(cached bool) string {
	if cached {
		return " [cached]"
	}
	return ""
}

func truncatedTag(truncated bool) string {
	if truncated {
		return " [truncated]"
	}
	return ""
}

// parseRangeArgs parses attr=lo:hi clauses.
func parseRangeArgs(args []string) ([]smartstore.Attr, []float64, []float64) {
	if len(args) == 0 {
		usage()
	}
	var attrs []smartstore.Attr
	var lo, hi []float64
	for _, arg := range args {
		name, spec, ok := strings.Cut(arg, "=")
		if !ok {
			fatal(fmt.Errorf("bad range clause %q (want attr=lo:hi)", arg))
		}
		a, err := smartstore.ParseAttr(name)
		if err != nil {
			fatal(fmt.Errorf("unknown attribute %q", name))
		}
		los, his, ok := strings.Cut(spec, ":")
		if !ok {
			fatal(fmt.Errorf("bad range clause %q (want attr=lo:hi)", arg))
		}
		l, err1 := strconv.ParseFloat(los, 64)
		h, err2 := strconv.ParseFloat(his, 64)
		if err1 != nil || err2 != nil {
			fatal(fmt.Errorf("bad bounds in %q", arg))
		}
		attrs = append(attrs, a)
		lo = append(lo, l)
		hi = append(hi, h)
	}
	return attrs, lo, hi
}

// parsePointArgs parses attr=value clauses.
func parsePointArgs(args []string) ([]smartstore.Attr, []float64) {
	if len(args) == 0 {
		usage()
	}
	var attrs []smartstore.Attr
	var vals []float64
	for _, arg := range args {
		name, spec, ok := strings.Cut(arg, "=")
		if !ok {
			fatal(fmt.Errorf("bad point clause %q (want attr=value)", arg))
		}
		a, err := smartstore.ParseAttr(name)
		if err != nil {
			fatal(fmt.Errorf("unknown attribute %q", name))
		}
		v, err := strconv.ParseFloat(spec, 64)
		if err != nil {
			fatal(fmt.Errorf("bad value in %q", arg))
		}
		attrs = append(attrs, a)
		vals = append(vals, v)
	}
	return attrs, vals
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  smartctl [flags] stats
  smartctl [flags] point <path>
  smartctl [flags] range attr=lo:hi [attr=lo:hi ...]
  smartctl [flags] topk <k> attr=value [attr=value ...]
  smartctl -remote host:port metrics

query option flags (local and -remote):
  -records      inline full file records in the answer
  -limit N      truncate the answer to N ids
  -mode M       per-query path override: offline or online

attributes: size ctime mtime atime read_bytes write_bytes access_freq
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartctl:", err)
	os.Exit(1)
}

// printMetrics fetches /v1/metrics and renders it human-readably:
// counters and gauges as name{labels} value, histograms folded to
// count / mean / p50 / p95 / p99.
func printMetrics(cl *client.Client) {
	text, err := cl.Metrics()
	if err != nil {
		fatal(err)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		fatal(fmt.Errorf("parsing /v1/metrics exposition: %w", err))
	}
	for _, fam := range fams {
		switch fam.Type {
		case "histogram":
			printHistogramFamily(fam)
		default:
			for _, s := range fam.Samples {
				fmt.Printf("%-52s %g\n", s.Name+labelSuffix(s.Labels), s.Value)
			}
		}
	}
}

// printHistogramFamily renders one histogram family, one line per
// label set.
func printHistogramFamily(fam obs.Family) {
	// Group samples by label set, keeping first-seen order.
	type group struct {
		key     string
		buckets []obs.Sample
		sum     float64
		count   float64
	}
	var order []string
	groups := make(map[string]*group)
	for _, s := range fam.Samples {
		labels := make(map[string]string, len(s.Labels))
		for k, v := range s.Labels {
			if !(s.Name == fam.Name+"_bucket" && k == "le") {
				labels[k] = v
			}
		}
		key := labelSuffix(labels)
		g := groups[key]
		if g == nil {
			g = &group{key: key}
			groups[key] = g
			order = append(order, key)
		}
		switch s.Name {
		case fam.Name + "_bucket":
			g.buckets = append(g.buckets, s)
		case fam.Name + "_sum":
			g.sum = s.Value
		case fam.Name + "_count":
			g.count = s.Value
		}
	}
	for _, key := range order {
		g := groups[key]
		if g.count == 0 {
			fmt.Printf("%-52s count 0\n", fam.Name+g.key)
			continue
		}
		fmt.Printf("%-52s count %.0f mean %s p50 %s p95 %s p99 %s\n",
			fam.Name+g.key, g.count,
			histVal(fam.Name, g.sum/g.count),
			histVal(fam.Name, obs.BucketQuantile(g.buckets, 0.50)),
			histVal(fam.Name, obs.BucketQuantile(g.buckets, 0.95)),
			histVal(fam.Name, obs.BucketQuantile(g.buckets, 0.99)))
	}
}

// histVal renders a histogram statistic: families named *_seconds are
// durations, anything else is a plain number.
func histVal(famName string, v float64) string {
	if strings.HasSuffix(famName, "_seconds") {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.1f", v)
}

// labelSuffix renders a label map as {k="v",...} sorted by key, or ""
// when empty.
func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
