// Admin audit: the motivating scenario of the paper's introduction —
// "after installing or updating software, a system administrator may
// hope to track and find the changed files, which exist in both system
// and user directories, to ward off malicious operations".
//
// The example simulates a software update that touches files scattered
// across the namespace during a known time window, then finds them with
// one multi-dimensional range query (modification time × write volume)
// instead of walking the directory tree.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	smartstore "repro"
	"repro/internal/stats"
)

func main() {
	set, err := smartstore.GenerateTrace("HP", 8000, 17)
	if err != nil {
		log.Fatal(err)
	}

	// Simulate the update: between t0 and t1 the installer rewrites 200
	// files across random directories.
	_, mhi := set.Norm.Bounds(smartstore.AttrMTime)
	t0 := mhi + 1000
	t1 := t0 + 1800 // a 30-minute install window
	rng := stats.NewRNG(19)
	touched := map[uint64]bool{}
	for len(touched) < 200 {
		f := set.Files[rng.IntN(len(set.Files))]
		if touched[f.ID] {
			continue
		}
		f.Attrs[smartstore.AttrMTime] = t0 + rng.Float64()*(t1-t0)
		f.Attrs[smartstore.AttrWriteBytes] += 64 << 10
		touched[f.ID] = true
	}

	// An audit wants completeness, so use the exact on-line multicast
	// path (§3.3) rather than the bounded off-line search.
	store, err := smartstore.Build(set.Files, smartstore.Config{
		Units: 60, Seed: 17, Mode: smartstore.OnLine,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One range query over (mtime, write volume) — no directory walk.
	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrWriteBytes}
	res, err := store.Do(context.Background(), smartstore.NewRangeQuery(attrs,
		[]float64{t0, 64 << 10},
		[]float64{t1, 1 << 40},
	))
	if err != nil {
		log.Fatal(err)
	}

	found := 0
	dirs := map[string]int{}
	byID := map[uint64]*smartstore.File{}
	for _, f := range set.Files {
		byID[f.ID] = f
	}
	for _, id := range res.IDs {
		if touched[id] {
			found++
		}
		if f := byID[id]; f != nil {
			// Count top-level user directories to show the spread.
			parts := strings.SplitN(f.Path, "/", 4)
			if len(parts) > 2 {
				dirs[parts[2]]++
			}
		}
	}

	fmt.Printf("files touched by install:  %d\n", len(touched))
	fmt.Printf("range query returned:      %d (recall %.1f%%)\n",
		len(res.IDs), 100*float64(found)/float64(len(touched)))
	fmt.Printf("query cost:                %.4fs, %d messages, %d hop(s)\n",
		res.Report.Latency, res.Report.Messages, res.Report.Hops)
	fmt.Printf("directories spanned:       %d (a directory walk would visit the whole tree)\n", len(dirs))
}
