// Package merge holds the exact result-merging logic shared by every
// layer that fans a query out and folds the partial answers back
// together: the sharded engine (internal/engine) across its shards, and
// the scale-out gateway (internal/gateway) across whole smartstored
// backends. Both layers must produce answers identical to a single
// store's, so the merge rules live in one place:
//
//   - union answers (point, range) concatenate partial id lists in
//     partition order — each partition holds a disjoint slice of the
//     population, so the union is exact;
//   - top-k answers keep the k globally nearest candidates by true
//     normalized distance under a bounded max-heap, ordered ascending by
//     (distance, id), so a merged answer matches the single-deployment
//     answer on identical data.
//
// Compare declares that (distance, id) order once: the per-group search
// (semtree.Tree.SearchGroupTopK), the per-cluster rerank
// (internal/cluster) and both fan-ins rank by it.
//
// The rest of what the two layers share sits beside the types it works
// on: which children a query or a write goes to is centroid routing in
// internal/metadata (NearestCentroid, NearestCentroids, OfflineFanout),
// and how children's reports fold is engine.Compose.
package merge

import (
	"cmp"
	"container/heap"
)

// Cand is one top-k candidate: a file id with its true normalized
// squared distance to the query point.
type Cand struct {
	ID   uint64  // file id
	Dist float64 // normalized squared distance to the query point
}

// Compare is the (distance, id) ascending total order every top-k answer
// is ranked by: nearer first, ties broken by ascending id. It returns a
// negative number when a ranks before b, a positive one when after, and
// zero only for equal candidates — the form slices.SortFunc takes.
func Compare(a, b Cand) int {
	if a.Dist != b.Dist {
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// Less reports whether a ranks before b under Compare.
func Less(a, b Cand) bool { return Compare(a, b) < 0 }

// candHeap is a bounded max-heap over (dist, id): the root is the
// current worst of the k best, so a better candidate replaces it in
// O(log k) and the merge never materializes more than k entries.
type candHeap []Cand

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return Less(h[j], h[i]) }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(Cand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK folds per-partition top-k candidate lists into the k globally
// nearest, ordered ascending by (distance, id). k values cross trust
// boundaries (the wire layer only requires k ≥ 1), so the heap's
// preallocation is bounded by the actual candidate count — it can never
// hold more entries than the partitions returned.
func TopK(lists [][]Cand, k int) []Cand {
	if k <= 0 {
		return nil
	}
	prealloc := 0
	for _, l := range lists {
		prealloc += len(l)
	}
	if k < prealloc {
		prealloc = k
	}
	h := make(candHeap, 0, prealloc)
	for _, l := range lists {
		for _, c := range l {
			if len(h) < k {
				heap.Push(&h, c)
			} else if Less(c, h[0]) {
				h[0] = c
				heap.Fix(&h, 0)
			}
		}
	}
	// Popping the max-heap yields the worst first: fill from the back.
	out := make([]Cand, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Cand)
	}
	return out
}

// TopKAligned is TopK over the form answers travel in — per-partition
// id lists with their distances in aligned slices (a partition that
// sent fewer distances than ids ranks the remainder at distance 0) —
// returning the k globally nearest in the same aligned form.
func TopKAligned(ids [][]uint64, dists [][]float64, k int) ([]uint64, []float64) {
	lists := make([][]Cand, len(ids))
	for i, l := range ids {
		cl := make([]Cand, len(l))
		for j, id := range l {
			cl[j].ID = id
			if j < len(dists[i]) {
				cl[j].Dist = dists[i][j]
			}
		}
		lists[i] = cl
	}
	cands := TopK(lists, k)
	outIDs := make([]uint64, len(cands))
	outDists := make([]float64, len(cands))
	for i, c := range cands {
		outIDs[i] = c.ID
		outDists[i] = c.Dist
	}
	return outIDs, outDists
}

// Union concatenates per-partition id lists in partition order — the
// exact union of disjoint partitions. A duplicate id (two partitions
// claiming the same file — a misprovisioned federation, never a sharded
// engine) is kept once, first partition wins; the count of dropped
// duplicates is returned so the caller can surface the misconfiguration
// in its metrics instead of silently double-counting.
func Union(lists [][]uint64) (ids []uint64, duplicates int) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	ids = make([]uint64, 0, total)
	if total == 0 {
		return ids, 0
	}
	seen := make(map[uint64]struct{}, total)
	for _, l := range lists {
		for _, id := range l {
			if _, dup := seen[id]; dup {
				duplicates++
				continue
			}
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	return ids, duplicates
}
