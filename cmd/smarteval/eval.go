package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	smartstore "repro"
	"repro/internal/client"
	"repro/internal/eval"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options parameterizes one scenario run.
type Options struct {
	// Client is the connected client for the live endpoint. The served
	// deployment MUST have been bootstrapped from the same trace, file
	// count and seed as Set, or the ground-truth comparison is
	// meaningless (the runner cross-checks the served file count).
	Client *client.Client
	// Set is the build corpus the truth mirror seeds from.
	Set *trace.Set
	// Ops is the total operation count (0 → 800).
	Ops int
	// Clients is the concurrent worker count per query round (0 → 8).
	Clients int
	// Seed drives the scenario's op streams.
	Seed uint64
	// RoundSize is the replay round length (0 → max(64, 8×Clients)):
	// each round runs its queries concurrently, then applies its
	// mutations, so queries never race a write the mirror has not seen.
	RoundSize int
	// Pace honours the ops' arrival offsets (bursty scenarios) instead
	// of replaying closed-loop.
	Pace bool
	// Config tags the result with the deployment knobs under test.
	Config Config
}

func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 800
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.RoundSize <= 0 {
		o.RoundSize = 8 * o.Clients
		if o.RoundSize < 64 {
			o.RoundSize = 64
		}
	}
	return o
}

// runState accumulates one scenario run's measurements.
type runState struct {
	mu            sync.Mutex
	lat           map[string][]float64 // milliseconds per op kind
	errs          map[string]int
	rangeRecalls  []float64
	topkRecalls   []float64
	rangeSpurious int
	pointQueries  int
	pointHits     int
	mismatches    int
	mutations     int
}

func (st *runState) observe(kind string, ms float64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.errs[kind]++
		return
	}
	st.lat[kind] = append(st.lat[kind], ms)
}

// Run replays one scenario against the live endpoint and returns its
// report cell. A returned error means the run itself broke (endpoint
// down, corpus mismatch, a mutation failed outright) — measurement
// outcomes, including recall misses and per-op errors, live in the
// result instead.
func Run(ctx context.Context, scn Scenario, opts Options) (*ScenarioResult, error) {
	res, _, err := RunTracked(ctx, scn, opts)
	return res, err
}

// RunTracked is Run plus the final truth mirror, for drivers chaining
// mutating scenarios against one long-lived endpoint: the mirror's
// final population is exactly what the endpoint holds, so it seeds the
// next scenario's corpus.
func RunTracked(ctx context.Context, scn Scenario, opts Options) (*ScenarioResult, *eval.Truth, error) {
	opts = opts.withDefaults()
	if opts.Client == nil || opts.Set == nil {
		return nil, nil, fmt.Errorf("eval: Client and Set are required")
	}
	remote, err := opts.Client.Stats()
	if err != nil {
		return nil, nil, fmt.Errorf("eval: endpoint not reachable: %w", err)
	}
	if remote.Store.Files != len(opts.Set.Files) {
		return nil, nil, fmt.Errorf("eval: endpoint holds %d files but the truth corpus has %d — bootstrap mismatch",
			remote.Store.Files, len(opts.Set.Files))
	}

	ops := scn.Ops(opts.Set, opts.Ops, opts.Seed)
	truth := eval.NewTruth(opts.Set.Files, opts.Set.Norm)
	st := &runState{lat: map[string][]float64{}, errs: map[string]int{}}

	start := time.Now()
	for lo := 0; lo < len(ops); lo += opts.RoundSize {
		hi := lo + opts.RoundSize
		if hi > len(ops) {
			hi = len(ops)
		}
		if err := runRound(ctx, ops[lo:hi], truth, st, opts); err != nil {
			return nil, nil, err
		}
	}
	wall := time.Since(start).Seconds()

	res := &ScenarioResult{
		Scenario:      scn.Name,
		Desc:          scn.Desc,
		Trace:         scn.Trace,
		Tenants:       len(scn.Tenants),
		Config:        opts.Config,
		Files:         truth.Len(),
		Ops:           len(ops),
		Clients:       opts.Clients,
		Seed:          opts.Seed,
		WallSec:       wall,
		Mutations:     st.mutations,
		PerOp:         map[string]*LatencyStat{},
		RangeRecall:   recallStat(st.rangeRecalls),
		TopKRecall:    recallStat(st.topkRecalls),
		RangeSpurious: st.rangeSpurious,
		PointQueries:  st.pointQueries,
		PointHits:     st.pointHits,
		Mismatches:    st.mismatches,
	}
	if wall > 0 {
		res.Throughput = float64(len(ops)) / wall
	}
	if res.PointQueries > 0 {
		res.PointHitRate = float64(res.PointHits) / float64(res.PointQueries)
	}
	kinds := map[string]bool{}
	for k := range st.lat {
		kinds[k] = true
	}
	for k := range st.errs {
		kinds[k] = true
	}
	for k := range kinds {
		res.PerOp[k] = latStat(st.lat[k], st.errs[k])
		res.Errors += st.errs[k]
	}
	return res, truth, nil
}

// runRound executes one replay round: the round's queries concurrently
// under the worker pool (optionally paced by arrival offset), then its
// mutations in stream order.
func runRound(ctx context.Context, ops []trace.Op, truth *eval.Truth, st *runState, opts Options) error {
	var queries, mutations []trace.Op
	for _, op := range ops {
		switch op.Kind {
		case trace.OpInsert, trace.OpDelete, trace.OpModify:
			mutations = append(mutations, op)
		default:
			queries = append(queries, op)
		}
	}

	// Freeze the truth snapshot before any worker reads it.
	truth.Files()

	jobs := make(chan trace.Op)
	var wg sync.WaitGroup
	for w := 0; w < opts.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range jobs {
				runQuery(ctx, op, truth, st, opts)
			}
		}()
	}
	base := 0.0
	if opts.Pace && len(queries) > 0 {
		base = queries[0].At
	}
	phaseStart := time.Now()
	for _, op := range queries {
		if opts.Pace {
			if due := time.Duration((op.At - base) * float64(time.Second)); due > 0 {
				if d := due - time.Since(phaseStart); d > 0 {
					time.Sleep(d)
				}
			}
		}
		select {
		case jobs <- op:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()

	for _, op := range mutations {
		if err := runMutation(ctx, op, truth, st, opts); err != nil {
			return err
		}
	}
	return nil
}

// runQuery executes one query op against the endpoint, measures its
// latency, and scores it against the exact truth.
func runQuery(ctx context.Context, op trace.Op, truth *eval.Truth, st *runState, opts Options) {
	var q smartstore.Query
	switch op.Kind {
	case trace.OpPoint:
		q = smartstore.NewPointQuery(op.Point.Filename)
	case trace.OpRange:
		q = smartstore.NewRangeQuery(op.Range.Attrs, op.Range.Lo, op.Range.Hi)
	case trace.OpTopK:
		q = smartstore.NewTopKQuery(op.TopK.Attrs, op.TopK.Point, op.TopK.K)
	default:
		return
	}
	t0 := time.Now()
	resp, err := opts.Client.Query(ctx, q)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	st.observe(op.Kind.String(), ms, err)
	if err != nil {
		return
	}

	switch op.Kind {
	case trace.OpRange:
		want := truth.Range(op.Range)
		r := stats.Recall(want, resp.IDs)
		inTruth := make(map[uint64]bool, len(want))
		for _, id := range want {
			inTruth[id] = true
		}
		spurious := 0
		for _, id := range resp.IDs {
			if !inTruth[id] {
				spurious++
			}
		}
		st.mu.Lock()
		st.rangeRecalls = append(st.rangeRecalls, r)
		st.rangeSpurious += spurious
		st.mu.Unlock()
	case trace.OpTopK:
		want := truth.TopK(op.TopK)
		r := stats.Recall(want, resp.IDs)
		st.mu.Lock()
		st.topkRecalls = append(st.topkRecalls, r)
		st.mu.Unlock()
	case trace.OpPoint:
		want := truth.Point(op.Point)
		hit := len(want) == len(resp.IDs) && stats.Recall(want, resp.IDs) == 1
		st.mu.Lock()
		st.pointQueries++
		if hit {
			st.pointHits++
		}
		st.mu.Unlock()
	}
}

// runMutation applies one mutation to the served store and mirrors it
// into the truth, cross-checking the two verdicts. Mutation latency
// lands in the same per-op stats as queries.
func runMutation(ctx context.Context, op trace.Op, truth *eval.Truth, st *runState, opts Options) error {
	st.mutations++
	switch op.Kind {
	case trace.OpInsert:
		f := *op.File
		t0 := time.Now()
		resp, err := opts.Client.Insert([]*smartstore.File{&f})
		st.observe(op.Kind.String(), float64(time.Since(t0))/float64(time.Millisecond), err)
		if err != nil {
			return fmt.Errorf("eval: insert %q: %w", op.File.Path, err)
		}
		if len(resp.IDs) != 1 {
			return fmt.Errorf("eval: insert %q: server returned %d ids", op.File.Path, len(resp.IDs))
		}
		if err := truth.Insert(resp.IDs[0], op.File); err != nil {
			return err
		}
	case trace.OpDelete:
		t0 := time.Now()
		resp, err := opts.Client.DeleteCtx(ctx, op.ID)
		st.observe(op.Kind.String(), float64(time.Since(t0))/float64(time.Millisecond), err)
		if err != nil {
			return fmt.Errorf("eval: delete %d: %w", op.ID, err)
		}
		if truth.Delete(op.ID) != resp.Found {
			st.mismatches++
		}
	case trace.OpModify:
		t0 := time.Now()
		resp, err := opts.Client.Modify(op.File)
		st.observe(op.Kind.String(), float64(time.Since(t0))/float64(time.Millisecond), err)
		if err != nil {
			return fmt.Errorf("eval: modify %d: %w", op.ID, err)
		}
		if truth.Modify(op.File) != resp.Found {
			st.mismatches++
		}
	}
	return nil
}
