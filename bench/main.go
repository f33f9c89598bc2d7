// Command bench is the repository's benchmark: five named workloads,
// each a real deployment on loopback TCP inside this process, measured
// end to end by a timed pass (tracing off, two closed-loop clients) and
// layer by layer by a traced pass (one client, a fixed op prefix
// replayed at successive boundaries of identical twins). See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run . [-only W] [-seed N] [-quick] [-out r.json] [-spans s.jsonl]   (from bench/)
//	go run . -workload W -seed N -seconds S -trace 0|1                    (the contract's form)
//	go run . -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// report is the -out file: every pass of every run, and no claim —
// this program measures, a change that wants to claim a gain cites two
// of these.
type report struct {
	Benchmark string    `json:"benchmark"`
	Quick     bool      `json:"quick"`
	WindowS   float64   `json:"window_s"`
	WarmupS   float64   `json:"warmup_s"`
	Clients   int       `json:"clients"`
	Files     int       `json:"files"`
	Runs      []*result `json:"runs"`
	Claim     *string   `json:"claim"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("only", "", "run one workload (same as -workload)")
		seed    = fs.Uint64("seed", 1, "seed of the corpus and the op streams; the stores never see it")
		seconds = fs.Float64("seconds", 0, "length of the timed window (0 = the scale's default)")
		tracing = fs.Int("trace", -1, "0 = timed pass only, 1 = traced pass only, -1 = both")
		out     = fs.String("out", "", "write the JSON report here")
		spansTo = fs.String("spans", "", "write the traced pass's spans here, one JSON object per line")
		quick   = fs.Bool("quick", false, "2000 files, 1 s windows, 200-op prefix: for tests, never for numbers")
		repeat  = fs.Int("repeat", 1, "run the whole set this many times, on seeds seed, seed+1, ...")
		compare = fs.Bool("compare", false, "compare two reports: -compare base.json new.json")
	)
	fs.StringVar(only, "workload", "", "run one workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	sc := fullScale
	if *quick {
		sc = quickScale
	}
	if *seconds > 0 {
		sc.window = *seconds
	}
	selected := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
		selected = []*workload{w}
	}
	if *tracing < -1 || *tracing > 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0, 1 or -1, -repeat at least 1")
		return 2
	}
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rep := &report{Benchmark: "smartstore-bench", Quick: *quick, WindowS: sc.window, WarmupS: sc.warmup,
		Clients: clients, Files: sc.files}
	var spans []span
	ok := true
	for r := 0; r < *repeat; r++ {
		cfg := runConfig{sc: sc, seed: *seed + uint64(r), tmp: tmp}
		for _, w := range selected {
			if *tracing != 1 {
				res, err := timedPass(w, cfg)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printResult(stdout, res, endToEnd)
				rep.Runs = append(rep.Runs, res)
				ok = ok && res.Correct
			}
			if *tracing != 0 {
				res, sp, err := tracedPass(w, cfg)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printResult(stdout, res, perLayer)
				rep.Runs = append(rep.Runs, res)
				if *spansTo != "" {
					spans = append(spans, sp...)
				}
				ok = ok && res.Correct
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spansTo != "" {
		if err := writeSpans(*spansTo, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable result:
	// one pass of one workload in the contract's four keys, anything
	// more as a summary that ends with the claim this program makes.
	if len(rep.Runs) == 1 {
		defs := endToEnd
		if rep.Runs[0].Pass == "traced" {
			defs = perLayer
		}
		fmt.Fprintln(stdout, contractLine(rep.Runs[0], defs))
	} else {
		fmt.Fprintln(stdout, summaryLine(rep))
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: correctness gate failed")
		return 1
	}
	return 0
}

// printResult prints every metric of one pass by name with its unit
// and, for timings, the number of samples behind it.
func printResult(w io.Writer, r *result, defs []metricDef) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s · %s pass · seed %d · %d attempted, %d failed · %s\n",
		r.Workload, r.Pass, r.Seed, r.Attempted, r.Failed, verdict)
	wl := workloadByName(r.Workload)
	for _, m := range defs {
		v, measured := r.Metrics[m.Name]
		switch {
		case !m.appliesTo(wl):
			fmt.Fprintf(w, "  %-36s %14s %-6s (not on this workload's path)\n", m.Name, "-", m.Unit)
		case !measured:
			fmt.Fprintf(w, "  %-36s %14s %-6s (no samples)\n", m.Name, "-", m.Unit)
		case r.Samples[m.Name] > 0:
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, r.Samples[m.Name])
		default:
			fmt.Fprintf(w, "  %-36s %14.4f %-6s\n", m.Name, v, m.Unit)
		}
	}
	// Timings measured but not gated (write acknowledgements in the
	// timed pass) are printed too, so nothing measured is hidden.
	var extra []string
	for name := range r.Metrics {
		known := false
		for _, m := range defs {
			known = known || m.Name == name
		}
		if !known {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		unit := "ratio"
		if strings.HasSuffix(name, "_ms") {
			unit = "ms"
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d (reported, not gated)\n", name, r.Metrics[name], unit, r.Samples[name])
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(w, "  ladder (median us inside the boundary; self = this boundary minus the next one in, per op)\n")
		fmt.Fprintf(w, "  %-8s %-10s %12s %12s %8s\n", "class", "layer", "boundary_us", "self_us", "n")
		for _, row := range r.Ladder {
			fmt.Fprintf(w, "  %-8s %-10s %12.2f %12.2f %8d\n", row.Class, row.Layer, row.BoundaryUs, row.SelfUs, row.Samples)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
}

// contractLine renders one pass as the contract's result object:
// exactly the pass's declared metrics, each with value and unit.
func contractLine(r *result, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range defs {
		line.Metrics[m.Name] = mv{r.Metrics[m.Name], m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail
	return string(b)
}

// summaryLine closes a multi-pass run: what ran, whether the gate
// held, and the claim — always none.
func summaryLine(rep *report) string {
	sum := struct {
		Correct bool     `json:"correct"`
		Passes  []string `json:"passes"`
		Claim   *string  `json:"claim"`
	}{Correct: true}
	for _, r := range rep.Runs {
		sum.Correct = sum.Correct && r.Correct
		sum.Passes = append(sum.Passes, r.Workload+"/"+r.Pass)
	}
	b, _ := json.Marshal(sum) // strings and a bool cannot fail
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// scratchDir makes the run's scratch directory inside the checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build/tmp", "run-*")
}
