// Dedup: use SmartStore to narrow duplicate detection, the system-side
// application sketched in §1.1 — "SmartStore can help identify the
// duplicate copies that often exhibit similar or approximate
// multi-dimensional attributes, such as file size and created time ...
// organiz[ing] them into the same or adjacent groups where duplicate
// copies can be placed together with high probability".
//
// The example plants duplicate files (same size/ctime profile), then for
// each candidate runs a top-k query on (size, ctime) and measures how
// often the true duplicate surfaces in the candidate set — versus the
// brute-force cost of scanning everything.
package main

import (
	"context"
	"fmt"
	"log"

	smartstore "repro"
)

func main() {
	set, err := smartstore.GenerateTrace("EECS", 8000, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Plant duplicates: every 40th file gets a copy with identical size
	// and creation time (content copies share physical attributes).
	var dupIDs []uint64
	originals := map[uint64]uint64{} // dup id → original id
	nextID := uint64(1_000_000)
	files := set.Files
	for i := 0; i < len(set.Files); i += 40 {
		src := set.Files[i]
		dup := &smartstore.File{ID: nextID, Path: fmt.Sprintf("/backup%s", src.Path)}
		dup.Attrs = src.Attrs
		files = append(files, dup)
		dupIDs = append(dupIDs, dup.ID)
		originals[dup.ID] = src.ID
		nextID++
	}

	store, err := smartstore.Build(files, smartstore.Config{
		Units: 60,
		Seed:  7,
		Attrs: []smartstore.Attr{smartstore.AttrSize, smartstore.AttrCTime},
	})
	if err != nil {
		log.Fatal(err)
	}

	attrs := []smartstore.Attr{smartstore.AttrSize, smartstore.AttrCTime}
	byID := map[uint64]*smartstore.File{}
	for _, f := range files {
		byID[f.ID] = f
	}

	ctx := context.Background()
	found := 0
	var totalLatency float64
	const k = 16
	for _, dupID := range dupIDs {
		dup := byID[dupID]
		point := []float64{dup.Attrs[smartstore.AttrSize], dup.Attrs[smartstore.AttrCTime]}
		res, err := store.Do(ctx, smartstore.NewTopKQuery(attrs, point, k))
		if err != nil {
			log.Fatal(err)
		}
		totalLatency += res.Report.Latency
		for _, id := range res.IDs {
			if id == originals[dupID] {
				found++
				break
			}
		}
	}

	fmt.Printf("planted duplicates:   %d\n", len(dupIDs))
	fmt.Printf("found via top-%d:      %d (%.1f%%)\n", k, found, 100*float64(found)/float64(len(dupIDs)))
	fmt.Printf("mean query latency:   %.6fs (semantic groups)\n", totalLatency/float64(len(dupIDs)))
	fmt.Printf("corpus size:          %d files — brute force would scan all of them per candidate\n", len(files))
}
