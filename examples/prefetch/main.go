// Prefetch: semantic-aware caching, the second system-side application
// of §1.1 — "when a file is visited, we can execute a top-k query to
// find its k most correlated files to be prefetched".
//
// The example replays an access stream with Zipf popularity and compares
// the hit rate of a plain LRU metadata cache against LRU plus top-k
// semantic prefetching: on every miss, the k files most correlated with
// the missed file are pulled into the cache alongside it.
package main

import (
	"container/list"
	"context"
	"fmt"
	"log"

	smartstore "repro"
	"repro/internal/stats"
)

// lruCache is a fixed-capacity LRU set of file ids.
type lruCache struct {
	cap   int
	order *list.List
	items map[uint64]*list.Element
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), items: map[uint64]*list.Element{}}
}

func (c *lruCache) touch(id uint64) bool {
	if el, ok := c.items[id]; ok {
		c.order.MoveToFront(el)
		return true
	}
	c.insert(id)
	return false
}

func (c *lruCache) insert(id uint64) {
	if el, ok := c.items[id]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[id] = c.order.PushFront(id)
	for len(c.items) > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(uint64))
	}
}

func main() {
	set, err := smartstore.GenerateTrace("MSN", 6000, 11)
	if err != nil {
		log.Fatal(err)
	}
	store, err := smartstore.Build(set.Files, smartstore.Config{Units: 40, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Access stream: Zipf popularity with inter-file semantic
	// correlation — after a file is visited, the next access hits one of
	// its semantically correlated files with probability 0.6, matching
	// the measurement the paper cites (§1.1: "the probability of
	// inter-file access is found to be up to 80%" in Nexus/FARMER).
	attrsStream := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes, smartstore.AttrWriteBytes}
	ctx := context.Background()
	rng := stats.NewRNG(13)
	zipf := stats.NewZipfGen(rng, 1.1, len(set.Files))
	neighborCache := map[uint64][]*smartstore.File{}
	neighbors := func(f *smartstore.File) []*smartstore.File {
		if ns, ok := neighborCache[f.ID]; ok {
			return ns
		}
		point := []float64{
			f.Attrs[smartstore.AttrMTime],
			f.Attrs[smartstore.AttrReadBytes],
			f.Attrs[smartstore.AttrWriteBytes],
		}
		res, err := store.Do(ctx, smartstore.NewTopKQuery(attrsStream, point, 12).
			WithOptions(smartstore.QueryOptions{IncludeRecords: true}))
		if err != nil {
			log.Fatal(err)
		}
		var ns []*smartstore.File
		for i := range res.Records {
			if res.Records[i].ID != f.ID {
				ns = append(ns, &res.Records[i])
			}
		}
		neighborCache[f.ID] = ns
		return ns
	}
	const accesses = 20000
	const correlation = 0.6
	stream := make([]*smartstore.File, accesses)
	cur := set.Files[zipf.Next()]
	for i := range stream {
		stream[i] = cur
		ns := neighbors(cur)
		if len(ns) > 0 && rng.Float64() < correlation {
			cur = ns[rng.IntN(len(ns))]
		} else {
			cur = set.Files[zipf.Next()]
		}
	}

	attrs := []smartstore.Attr{smartstore.AttrMTime, smartstore.AttrReadBytes, smartstore.AttrWriteBytes}
	const cacheSize = 256
	const prefetchK = 8

	run := func(prefetch bool) float64 {
		cache := newLRU(cacheSize)
		hits := 0
		for _, f := range stream {
			if cache.touch(f.ID) {
				hits++
				continue
			}
			if !prefetch {
				continue
			}
			// Miss: prefetch the k most correlated files (§1.1).
			point := []float64{
				f.Attrs[smartstore.AttrMTime],
				f.Attrs[smartstore.AttrReadBytes],
				f.Attrs[smartstore.AttrWriteBytes],
			}
			res, err := store.Do(ctx, smartstore.NewTopKQuery(attrs, point, prefetchK))
			if err != nil {
				log.Fatal(err)
			}
			for _, id := range res.IDs {
				cache.insert(id)
			}
		}
		return float64(hits) / float64(accesses)
	}

	plain := run(false)
	semantic := run(true)
	fmt.Printf("accesses:                 %d (Zipf over %d files)\n", accesses, len(set.Files))
	fmt.Printf("cache capacity:           %d entries\n", cacheSize)
	fmt.Printf("LRU hit rate:             %.1f%%\n", plain*100)
	fmt.Printf("LRU + top-%d prefetch:     %.1f%%\n", prefetchK, semantic*100)
	fmt.Printf("improvement:              %+.1f points\n", (semantic-plain)*100)
}
