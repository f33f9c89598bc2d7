package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	workload, metric string
	base, new        float64
	worse            float64 // share of base by which new is worse (negative = better)
	spread           float64 // base's interquartile range over its median; 0 with fewer than 4 runs
	bound            float64
	verdict          string
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// timedValues gathers one end-to-end metric's values over a report's
// timed passes of one workload.
func timedValues(r *report, workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Pass != "timed" {
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// compareRows applies each end-to-end metric's bound to the medians of
// two reports, one row per workload × metric present in both. A row
// whose base runs spread wider than the bound cannot tell a regression
// from noise and is unresolved, never ok.
func compareRows(base, cur *report) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			bv, nv := timedValues(base, w.name, m.Name), timedValues(cur, w.name, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			row := compareRow{workload: w.name, metric: m.Name, base: median(bv), new: median(nv), bound: m.Bound}
			if row.base != 0 {
				row.worse = (row.new - row.base) / row.base
				if m.Better == "higher" {
					row.worse = -row.worse
				}
				if len(bv) >= 4 {
					q1, q3 := quartiles(bv)
					row.spread = (q3 - q1) / row.base
				}
			}
			switch {
			case row.spread > row.bound:
				row.verdict = verdictUnresolved
			case row.worse > row.bound:
				row.verdict = verdictRegressed
			default:
				row.verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func compareReports(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if base.Quick != cur.Quick || base.WindowS != cur.WindowS {
		fmt.Fprintln(stderr, "bench: the two reports were made at different scales")
		return 2
	}
	return printCompare(compareRows(base, cur), stdout)
}

func printCompare(rows []compareRow, w io.Writer) int {
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "base", "new", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+8.1f%% %8.1f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.base, r.new, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no workload × metric is in both reports")
		return 2
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
