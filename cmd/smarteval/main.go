// Command smarteval is the batch evaluation harness: it replays the
// scenario mixes of scenario.go — Zipf-hot vs uniform-scan anchors,
// steady vs bursty arrivals, scan-heavy vs insert-heavy balances,
// multi-tenant attribute mixes — against a served deployment and
// reports, per scenario, client-observed throughput and latency
// percentiles plus range/top-k recall against a single-union-store
// ground truth (the paper's Fig. 10/12 methodology), as machine-
// readable EVAL_report.json.
//
// Two modes:
//
//	smarteval -scenarios all -shards 1,4 -budgets 0,64
//	smarteval -remote localhost:7070 -trace MSN -files 20000 -seed 42
//
// The default in-process mode sweeps shard count × offline group
// budget, building a fresh store per cell so every scenario starts
// from an identical corpus. Remote mode drives a live smartstored or
// smartgate; -trace/-files/-seed must match the daemon's bootstrap,
// and mutating scenarios carry the evolved corpus forward so the
// ground truth tracks the daemon across scenarios.
//
// Every mutation is mirrored into the internal/eval ground truth. The
// replay is round-based: each round's queries run concurrently
// (latency is measured there), then the round's mutations apply — to
// the served store and the mirror — so the comparison can never be
// ambiguous: every query races only queries, never a write the mirror
// has not seen. See DESIGN.md §10.
//
// Recall floors turn the report into a gate: with -floor-range /
// -floor-topk set, any scenario whose mean recall drops below its
// floor (or any server/truth mutation verdict mismatch) makes the
// process exit nonzero — the CI eval-smoke job runs exactly that.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/trace"
)

type options struct {
	remote    string
	scenarios string
	trace     string
	files     int
	units     int
	seed      uint64
	ops       int
	clients   int
	round     int
	pace      bool
	shards    []int
	budgets   []int
	fsync     string
	jsonPath  string
	floorRng  float64
	floorTopK float64
}

// report is the EVAL_report.json envelope.
type report struct {
	Tool       string            `json:"tool"`
	Remote     string            `json:"remote,omitempty"`
	Files      int               `json:"files"`
	Seed       uint64            `json:"seed"`
	Ops        int               `json:"ops"`
	Clients    int               `json:"clients"`
	FloorRange float64           `json:"floor_range,omitempty"`
	FloorTopK  float64           `json:"floor_topk,omitempty"`
	Results    []*ScenarioResult `json:"results"`
	Violations []string          `json:"violations,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.remote, "remote", "", "drive a live daemon at this address instead of in-process stores (requires -trace matching its bootstrap)")
	flag.StringVar(&o.scenarios, "scenarios", "all", "comma-separated scenario names, or all")
	flag.StringVar(&o.trace, "trace", "", "override every scenario's trace (HP, MSN or EECS); required with -remote")
	flag.IntVar(&o.files, "files", 2000, "corpus size per scenario (remote: must match the daemon's bootstrap)")
	flag.IntVar(&o.units, "units", 48, "storage units for in-process stores")
	flag.Uint64Var(&o.seed, "seed", 42, "corpus and replay seed (remote: must match the daemon's bootstrap)")
	flag.IntVar(&o.ops, "ops", 600, "operations per scenario")
	flag.IntVar(&o.clients, "clients", 8, "concurrent query workers")
	flag.IntVar(&o.round, "round", 0, "replay round length (0 = auto)")
	flag.BoolVar(&o.pace, "pace", false, "honour the scenarios' arrival offsets instead of closed-loop replay")
	shardsList := flag.String("shards", "1,4", "comma list of shard counts to sweep (in-process mode)")
	budgetsList := flag.String("budgets", "0", "comma list of offline group budgets to sweep (0 = adaptive heuristics)")
	flag.StringVar(&o.fsync, "fsync", "", "build in-process stores durable in a temp dir with this WAL fsync policy: always, interval or never (empty = in-memory)")
	flag.StringVar(&o.jsonPath, "json", "EVAL_report.json", "write the machine-readable report here (empty disables)")
	flag.Float64Var(&o.floorRng, "floor-range", 0, "fail if any scenario's mean range recall drops below this (0 disables)")
	flag.Float64Var(&o.floorTopK, "floor-topk", 0, "fail if any scenario's mean top-k recall drops below this (0 disables)")
	flag.Parse()

	var err error
	if o.shards, err = parseIntList(*shardsList); err != nil {
		fmt.Fprintf(os.Stderr, "smarteval: -shards: %v\n", err)
		return 2
	}
	if o.budgets, err = parseIntList(*budgetsList); err != nil {
		fmt.Fprintf(os.Stderr, "smarteval: -budgets: %v\n", err)
		return 2
	}
	scns, err := ByNames(o.scenarios)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smarteval: %v\n", err)
		return 2
	}
	if o.trace != "" {
		for i := range scns {
			scns[i].Trace = o.trace
		}
	}

	rep := &report{
		Tool: "smarteval", Remote: o.remote,
		Files: o.files, Seed: o.seed, Ops: o.ops, Clients: o.clients,
		FloorRange: o.floorRng, FloorTopK: o.floorTopK,
	}
	ctx := context.Background()
	if o.remote != "" {
		err = runRemote(ctx, scns, o, rep)
	} else {
		err = runSweep(ctx, scns, o, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "smarteval: %v\n", err)
		return 1
	}

	for _, res := range rep.Results {
		rep.Violations = append(rep.Violations, res.CheckFloors(o.floorRng, o.floorTopK)...)
	}
	if o.jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "smarteval: %v\n", err)
			return 1
		}
		if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "smarteval: %v\n", err)
			return 1
		}
		fmt.Printf("smarteval: report written to %s\n", o.jsonPath)
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "smarteval: FLOOR VIOLATION: %s\n", v)
		}
		return 1
	}
	return 0
}

// runRemote replays every scenario sequentially against one live
// daemon, carrying the truth mirror's evolved corpus forward so
// mutating scenarios leave the ground truth in sync with the endpoint.
func runRemote(ctx context.Context, scns []Scenario, o options, rep *report) error {
	if o.trace == "" {
		return fmt.Errorf("-remote needs -trace naming the daemon's bootstrap trace")
	}
	set, err := smartstore.GenerateTrace(o.trace, o.files, o.seed)
	if err != nil {
		return err
	}
	cl := client.New(o.remote)
	if !cl.Healthy() {
		return fmt.Errorf("no healthy daemon at %s", o.remote)
	}
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	cfg := Config{Endpoint: o.remote, Shards: st.Store.Shards}
	for _, scn := range scns {
		res, truth, err := RunTracked(ctx, scn, evalOptions(cl, set, o, cfg))
		if err != nil {
			return fmt.Errorf("scenario %s: %w", scn.Name, err)
		}
		rep.Results = append(rep.Results, res)
		printResult(res)
		// Seed the next scenario from what the daemon now holds.
		set = &trace.Set{Spec: set.Spec, TIF: set.TIF, Files: truth.Files(), Norm: set.Norm}
	}
	return nil
}

// runSweep runs every scenario in every shards × budget cell against a
// fresh in-process store, so cells are directly comparable.
func runSweep(ctx context.Context, scns []Scenario, o options, rep *report) error {
	sets := map[string]*trace.Set{}
	for _, shards := range o.shards {
		for _, budget := range o.budgets {
			for _, scn := range scns {
				set, ok := sets[scn.Trace]
				if !ok {
					var err error
					if set, err = smartstore.GenerateTrace(scn.Trace, o.files, o.seed); err != nil {
						return err
					}
					sets[scn.Trace] = set
				}
				res, err := runCell(ctx, scn, set, shards, budget, o)
				if err != nil {
					return fmt.Errorf("scenario %s (shards=%d budget=%d): %w", scn.Name, shards, budget, err)
				}
				rep.Results = append(rep.Results, res)
				printResult(res)
			}
		}
	}
	return nil
}

// runCell builds one store, serves it on a loopback listener, replays
// one scenario against it and tears everything down.
func runCell(ctx context.Context, scn Scenario, set *trace.Set, shards, budget int, o options) (*ScenarioResult, error) {
	cfg := smartstore.Config{
		Units: o.units, Shards: shards, Seed: o.seed,
		OfflineGroupBudget: budget,
	}
	if o.fsync != "" {
		dur, err := smartstore.ParseDurability(o.fsync)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "smarteval-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.Durability = dur
	}
	store, err := smartstore.Build(set.Files, cfg)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: server.New(store, server.Options{DisableMetrics: true})}
	go srv.Serve(ln)
	defer srv.Close()

	cl := client.New(ln.Addr().String())
	ecfg := Config{
		Endpoint: inProcess, Shards: shards, Fsync: o.fsync,
		OfflineBudget: budget,
	}
	return Run(ctx, scn, evalOptions(cl, set, o, ecfg))
}

func evalOptions(cl *client.Client, set *trace.Set, o options, cfg Config) Options {
	return Options{
		Client: cl, Set: set,
		Ops: o.ops, Clients: o.clients, Seed: o.seed,
		RoundSize: o.round, Pace: o.pace, Config: cfg,
	}
}

func printResult(r *ScenarioResult) {
	budget := "?" // a daemon does not report its off-line budget
	if r.Config.Endpoint == inProcess {
		budget = strconv.Itoa(r.Config.OfflineBudget)
	}
	line := fmt.Sprintf("%-13s shards=%-2d budget=%-3s %8.0f ops/s",
		r.Scenario, r.Config.Shards, budget, r.Throughput)
	if st, ok := r.PerOp["range"]; ok && st.Count > 0 {
		line += fmt.Sprintf("  range p95 %6.2fms", st.P95Ms)
	}
	if r.RangeRecall != nil {
		line += fmt.Sprintf("  range recall %.4f", r.RangeRecall.Mean)
	}
	if r.TopKRecall != nil {
		line += fmt.Sprintf("  topk recall %.4f", r.TopKRecall.Mean)
	}
	if r.Errors > 0 || r.Mismatches > 0 {
		line += fmt.Sprintf("  [errors=%d mismatches=%d]", r.Errors, r.Mismatches)
	}
	fmt.Println(line)
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
