package engine

import (
	"context"
	"sync"

	"repro/internal/cluster"
	"repro/internal/merge"
	"repro/internal/metadata"
	"repro/internal/query"
)

// Report carries the accounting of one operation in the same units as
// cluster.Result (seconds of virtual time, message counts): virtual
// latency, network messages, routing hops (groups beyond the first) and
// storage units searched. It is the one report type from the engine to the
// wire — the root facade's QueryReport and the wire format's Report are
// aliases — so the JSON names below are the §5 wire contract.
type Report struct {
	Latency       float64 `json:"latency_sec"`    // simulated latency, seconds
	Messages      int64   `json:"messages"`       // simulated network messages
	Hops          int     `json:"hops"`           // semantic R-tree routing hops
	UnitsSearched int     `json:"units_searched"` // storage units probed
}

func reportFrom(r cluster.Result) Report {
	return Report{
		Latency:       float64(r.Latency),
		Messages:      r.Messages,
		Hops:          r.Hops,
		UnitsSearched: r.UnitsSearched,
	}
}

// Compose folds the reports of children that ran in parallel — shards
// under an engine, members under a gateway — into their parent's: wall
// times are the slowest child's, messages and per-node work sum.
// Routing distance composes like it does across groups: each child's
// hops count groups beyond its first, so crossing into every
// contributing child (one that returned results) beyond the first adds
// one more hop — a single contributing child adds none, identical to
// the unsharded accounting.
func Compose(children []Report, contributing int) Report {
	var out Report
	for _, c := range children {
		if c.Latency > out.Latency {
			out.Latency = c.Latency
		}
		out.Messages += c.Messages
		out.Hops += c.Hops
		out.UnitsSearched += c.UnitsSearched
	}
	if contributing > 1 {
		out.Hops += contributing - 1
	}
	return out
}

// QueryOpts carries the execution options of one engine query.
type QueryOpts struct {
	// Online selects the on-line multicast path on every shard.
	Online bool
	// Limit truncates the merged answer (0 = unlimited).
	Limit int
	// IncludeRecords projects full record copies into Answer.Records.
	IncludeRecords bool
	// IncludeDists resolves each top-k answer id's true normalized
	// squared distance into Answer.Dists — the handle a federating
	// gateway needs to merge per-store answers exactly. Ignored by
	// point and range queries.
	IncludeDists bool
}

// Answer is the merged result of one engine query — the root package's
// Result.
type Answer struct {
	// IDs are the matching file ids (for top-k, in ascending distance).
	IDs []uint64
	// Dists holds, aligned with IDs, each candidate's true normalized
	// squared distance for top-k queries run with IncludeDists.
	Dists []float64
	// Records carries the full metadata record per id, in IDs order,
	// for queries run with IncludeRecords.
	Records []metadata.File
	// Truncated reports that Limit cut the answer.
	Truncated bool
	// Report is the virtual-time accounting of the execution.
	Report Report
	// Shards lists the shard indices the query fanned out to — the
	// exact shard set whose state the answer is a function of (pruning
	// happens inside a target; a shard outside Shards was excluded by
	// data-independent routing over frozen centroids). Serving-layer
	// caches key invalidation on these shards' epochs.
	Shards []int
}

// allShards returns every shard index — the target set of exhaustive
// fan-outs.
func (e *Engine) allShards() []int {
	out := make([]int, len(e.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// fanout runs one query function on the target shards in parallel and
// collects the per-shard answers in target order. The first failing
// shard cancels the rest (shards queued on their query slot
// abandon the wait) and its error is returned. A single target runs
// inline with the caller's context untouched.
func (e *Engine) fanout(ctx context.Context, targets []int, run func(ctx context.Context, s *Shard) (answer, error)) ([]answer, error) {
	run = e.observedRun(ctx, run)
	if len(targets) == 1 {
		a, err := run(ctx, e.shards[targets[0]])
		if err != nil {
			return nil, err
		}
		return []answer{a}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	answers := make([]answer, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, idx := range targets {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			a, err := run(ctx, s)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			answers[i] = a
		}(i, e.shards[idx])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// offlineMaxShards caps an off-line top-k fan-out at the shared
// 1 + n/4 heuristic, or at Config.OfflineGroupBudget when set.
func (e *Engine) offlineMaxShards() int {
	return metadata.OfflineFanout(len(e.shards), e.cfg.OfflineGroupBudget)
}

// nearestShards returns, ascending, the max shards whose placement
// centroids are nearest the query point — every shard when the queried
// attributes share no dimension with the placement predicate.
func (e *Engine) nearestShards(attrs []metadata.Attr, point []float64, max int) []int {
	return metadata.NearestCentroids(e.norm, e.cfg.Attrs, e.centroids, attrs, point, max)
}

// Point answers a filename point query: any shard may hold the path
// (placement is by attribute vector, not name), so the query fans out
// to all shards — skipping those whose root Bloom filter rejects the
// name — and unions the matches in shard order.
func (e *Engine) Point(ctx context.Context, q query.Point, opts QueryOpts) (Answer, error) {
	prune := len(e.shards) > 1
	proj := projectOpts{records: opts.IncludeRecords, max: opts.Limit}
	targets := e.allShards()
	answers, err := e.fanout(ctx, targets, func(ctx context.Context, s *Shard) (answer, error) {
		return s.point(ctx, q, prune, proj)
	})
	if err != nil {
		return Answer{}, err
	}
	return e.mergeUnion(answers, targets, opts), nil
}

// Range answers a multi-dimensional range query: the fan-out skips
// shards whose root MBR misses the query rectangle (the semantic
// narrowing of the paper, lifted to the shard level) and unions the
// rest in shard order.
func (e *Engine) Range(ctx context.Context, q query.Range, opts QueryOpts) (Answer, error) {
	prune := len(e.shards) > 1
	// Union merges keep a prefix in shard order, so no shard can place
	// more than Limit ids in the final answer — cap its projection there.
	proj := projectOpts{records: opts.IncludeRecords, max: opts.Limit}
	targets := e.allShards()
	answers, err := e.fanout(ctx, targets, func(ctx context.Context, s *Shard) (answer, error) {
		return s.rangeQuery(ctx, q, opts.Online, prune, proj)
	})
	if err != nil {
		return Answer{}, err
	}
	return e.mergeUnion(answers, targets, opts), nil
}

// TopK answers a top-k nearest-neighbour query. On-line, every shard
// returns its local top k; off-line, the fan-out routes to the few
// shards whose placement centroids are most correlated with the query
// point (§3.4's replica-vector routing, applied above the tree).
// The engine keeps the k globally nearest candidates by true normalized
// distance under a bounded max-heap. A single-shard engine returns the
// shard's answer untouched.
func (e *Engine) TopK(ctx context.Context, q query.TopK, opts QueryOpts) (Answer, error) {
	multi := len(e.shards) > 1
	targets := e.allShards()
	if multi && !opts.Online {
		targets = e.nearestShards(q.Attrs, q.Point, e.offlineMaxShards())
	}
	// Cross-shard merging needs every candidate's true distance; a
	// caller asking for distances (a federating gateway merging across
	// whole stores) needs them resolved even on a single shard.
	wantDists := multi || opts.IncludeDists
	answers, err := e.fanout(ctx, targets, func(ctx context.Context, s *Shard) (answer, error) {
		return s.topK(ctx, q, opts.Online, multi, wantDists, opts.IncludeRecords)
	})
	if err != nil {
		return Answer{}, err
	}
	ids, dists := answers[0].ids, answers[0].dists
	if multi {
		idLists := make([][]uint64, len(answers))
		distLists := make([][]float64, len(answers))
		for i, a := range answers {
			idLists[i], distLists[i] = a.ids, a.dists
		}
		ids, dists = merge.TopKAligned(idLists, distLists, q.K)
	}
	out := e.finish(ids, targets, answers, opts)
	if opts.IncludeDists && dists != nil {
		if len(out.IDs) < len(dists) {
			dists = dists[:len(out.IDs)]
		}
		out.Dists = dists
	}
	return out, nil
}

// mergeUnion concatenates per-shard ids in shard order and finishes the
// answer (limit, records, report aggregation). Engine shards hold
// disjoint id populations by construction, so the concatenation is the
// exact union.
func (e *Engine) mergeUnion(answers []answer, targets []int, opts QueryOpts) Answer {
	total := 0
	for _, a := range answers {
		total += len(a.ids)
	}
	ids := make([]uint64, 0, total)
	for _, a := range answers {
		ids = append(ids, a.ids...)
	}
	return e.finish(ids, targets, answers, opts)
}

// finish applies the limit, projects records for the final ids from the
// owning shards' captures, and aggregates the per-shard reports.
func (e *Engine) finish(ids []uint64, targets []int, answers []answer, opts QueryOpts) Answer {
	out := Answer{Shards: targets}
	if opts.Limit > 0 && len(ids) > opts.Limit {
		ids = ids[:opts.Limit]
		out.Truncated = true
	}
	out.IDs = ids
	reports := make([]Report, 0, len(answers))
	contributing := 0
	for _, a := range answers {
		if a.pruned {
			continue
		}
		if len(a.ids) > 0 {
			contributing++
		}
		reports = append(reports, reportFrom(a.res))
	}
	out.Report = Compose(reports, contributing)
	if opts.IncludeRecords {
		out.Records = make([]metadata.File, 0, len(ids))
		for _, id := range ids {
			for _, a := range answers {
				if f, ok := a.recs[id]; ok {
					out.Records = append(out.Records, f)
					break
				}
			}
		}
	}
	return out
}
