// Command smartbench regenerates the tables and figures of the
// SmartStore paper's evaluation (§5).
//
// Usage:
//
//	smartbench -exp all                 # every experiment (slow)
//	smartbench -exp table4              # one experiment
//	smartbench -exp fig10,fig12         # several
//	smartbench -exp ablations           # the design-choice ablations
//	smartbench -quick                   # small populations (CI-sized)
//
// Experiment ids match DESIGN.md §3: table1..table6, fig7..fig14,
// ablations.
//
// The service itself — wall-clock throughput and latency through the
// HTTP API — is measured by the repo's benchmark, `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (see DESIGN.md §3), or 'all'")
	quick := flag.Bool("quick", false, "use small populations for a fast pass")
	baseFiles := flag.Int("files", 0, "override sample population per trace")
	units := flag.Int("units", 0, "override storage-unit count")
	queries := flag.Int("queries", 0, "override queries per cell")
	seed := flag.Uint64("seed", 0, "override random seed")
	flag.Parse()

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *baseFiles > 0 {
		p.BaseFiles = *baseFiles
	}
	if *units > 0 {
		p.Units = *units
	}
	if *queries > 0 {
		p.Queries = *queries
	}
	if *seed > 0 {
		p.Seed = *seed
	}

	if runExperiments(os.Stdout, *exp, p) == 0 {
		fmt.Fprintf(os.Stderr, "smartbench: no experiment matched %q (see DESIGN.md §3 for ids)\n", *exp)
		os.Exit(2)
	}
}

// runExperiments runs the experiments named in the comma-separated id
// list exp (or all of them) under p, writing each table to w in the
// paper's order, and returns how many tables it wrote.
func runExperiments(w io.Writer, exp string, p experiments.Params) int {
	wanted := map[string]bool{}
	for _, id := range strings.Split(exp, ",") {
		wanted[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := wanted["all"]
	want := func(id string) bool { return all || wanted[id] }
	ran := 0
	show := func(t *experiments.Table) {
		fmt.Fprintln(w, t.String())
		ran++
	}

	if want("table1") {
		show(experiments.TraceScaleUp(trace.HP(), p))
	}
	if want("table2") {
		show(experiments.TraceScaleUp(trace.MSN(), p))
	}
	if want("table3") {
		show(experiments.TraceScaleUp(trace.EECS(), p))
	}
	if want("table4") {
		show(experiments.QueryLatency(p))
	}
	if want("fig7") {
		show(experiments.SpaceOverhead(p))
	}
	if want("fig8") {
		show(experiments.RoutingHops(p))
	}
	if want("fig9") {
		show(experiments.PointHitRate(p))
	}
	if want("fig10") {
		show(experiments.RecallHP(p))
	}
	if want("fig11") || want("fig11a") || want("fig11b") {
		a, b := experiments.OptimalThresholds(p)
		show(a)
		show(b)
	}
	if want("fig12") {
		show(experiments.RecallScale(p))
	}
	if want("fig13") || want("fig13a") || want("fig13b") {
		a, b := experiments.OnOffline(p)
		show(a)
		show(b)
	}
	if want("fig14") || want("fig14a") || want("fig14b") {
		a, b := experiments.VersioningOverhead(p)
		show(a)
		show(b)
	}
	if want("table5") {
		show(experiments.RecallVersioning(trace.MSN(), p))
	}
	if want("table6") {
		show(experiments.RecallVersioning(trace.EECS(), p))
	}
	if want("ablations") {
		show(experiments.AblationLSIvsKMeans(p))
		show(experiments.AblationBloomSizing(p))
		show(experiments.AblationAdmissionThreshold(p))
		show(experiments.AblationAutoConfig(p))
		show(experiments.AblationReplicaDepth(p))
	}
	return ran
}
