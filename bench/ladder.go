package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	smartstore "repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/merge"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/semtree"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// span is one call into one layer. The traced pass runs every op of the
// prefix at each boundary in turn, each boundary on its own identical
// twin, so spans with the same Op belong to the same logical request and
// Parent names the boundary this one sits directly inside.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // from the start of the pass
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// Boundary names, outermost first.
const (
	layerClient  = "client"
	layerServer  = "server"
	layerGateway = "gateway"
	layerStore   = "store"
	layerEngine  = "engine"
	layerCluster = "cluster"
	layerSemtree = "semtree"
)

// rung is one boundary of the ladder, the twin it drives and what it
// measured. Entries of ops the boundary does not take (writes below the
// engine) stay zero and ran[i] false.
type rung struct {
	layer, parent string
	b             boundary
	take          func(*op) bool // nil = every op
	dur           []time.Duration
	out           []outcome
	ran           []bool
}

// ladderRow is one boundary's line in the ladder of one op class: the
// median time inside the boundary and the median of the per-op
// difference to the next boundary in — the layer's self time. The
// innermost boundary's self time is its whole time.
type ladderRow struct {
	Class      string  `json:"class"`
	Layer      string  `json:"layer"`
	BoundaryUs float64 `json:"boundary_us"`
	SelfUs     float64 `json:"self_us"`
	Samples    int     `json:"samples"`
}

// ladder carries the traced pass's shared state.
type ladder struct {
	w     *workload
	cfg   runConfig
	c     *corpus
	ops   []op
	res   *result
	spans []span
	t0    time.Time
}

// replay runs the prefix through the given rungs, op by op: op i visits
// every rung before op i+1 visits any. Each rung's twin so sees the
// whole sequence in order, and the boundaries of one op are measured
// within the same few milliseconds — this box's speed drifts by several
// percent over seconds, more than the layers between two boundaries
// cost, and a per-op difference is only as good as its two halves are
// close in time.
func (l *ladder) replay(rungs ...*rung) time.Duration {
	for _, g := range rungs {
		g.dur = make([]time.Duration, len(l.ops))
		g.out = make([]outcome, len(l.ops))
		g.ran = make([]bool, len(l.ops))
	}
	begin := time.Now()
	for i := range l.ops {
		o := &l.ops[i]
		for _, g := range rungs {
			if g.take != nil && !g.take(o) {
				continue
			}
			at := time.Since(l.t0)
			out, d, err := g.b.exec(o)
			l.res.Attempted++
			if err != nil {
				l.res.Failed++
				l.res.fail("%s op %d (%s): %v", g.layer, i, o.Kind, err)
				continue
			}
			g.dur[i], g.out[i], g.ran[i] = d, out, true
			l.spans = append(l.spans, span{Name: g.layer, Op: i, Kind: o.Kind.String(),
				Start: int64(at), End: int64(at + d), Parent: g.parent})
		}
	}
	return time.Since(begin)
}

func readsOnly(o *op) bool { return o.isRead() }

func ofClass(class int) func(*op) bool {
	return func(o *op) bool { return classOf(o.Kind) == class }
}

// times gathers a rung's times in µs for the ops pick accepts.
func (g *rung) times(ops []op, pick func(*op) bool) []float64 {
	var out []float64
	for i := range ops {
		if g.ran[i] && (pick == nil || pick(&ops[i])) {
			out = append(out, us(g.dur[i]))
		}
	}
	return out
}

// selfTimes pairs two rungs op by op: outer minus inner, the time the
// outer boundary spent outside the inner one. An op the server answered
// from its cache never reached the store, and subtracts nothing.
func selfTimes(ops []op, outer, inner *rung, pick func(*op) bool) []float64 {
	var out []float64
	for i := range ops {
		if !outer.ran[i] || (pick != nil && !pick(&ops[i])) {
			continue
		}
		d := outer.dur[i]
		if inner.ran[i] && !(outer.layer == layerServer && outer.out[i].cached) {
			d -= inner.dur[i]
		}
		out = append(out, us(d))
	}
	return out
}

// rows renders a chain of rungs, outermost first, as one ladder per op
// class.
func (l *ladder) rows(chain []*rung) []ladderRow {
	var out []ladderRow
	for k, name := range classNames {
		pick := ofClass(k)
		for i, g := range chain {
			v := g.times(l.ops, pick)
			if len(v) == 0 {
				break
			}
			row := ladderRow{Class: name, Layer: g.layer, BoundaryUs: median(v), SelfUs: median(v), Samples: len(v)}
			if i+1 < len(chain) && len(chain[i+1].times(l.ops, pick)) > 0 {
				row.SelfUs = median(selfTimes(l.ops, g, chain[i+1], pick))
			}
			out = append(out, row)
		}
	}
	return out
}

// engineConfig is the mapping smartstore.Config.engineConfig applies to
// this workload's store config, defaults included.
func (w *workload) engineConfig() engine.Config {
	attrs := trace.DefaultQueryAttrs()
	return engine.Config{
		Shards: w.shards, Units: units, Attrs: attrs,
		Tree:    semtree.Config{Attrs: attrs},
		Cluster: cluster.Config{Seed: storeSeed},
	}
}

// tracedPass measures the per-layer metrics and runs the correctness
// gate: every boundary must return the same answers for the same ops.
func tracedPass(w *workload, cfg runConfig) (*result, []span, error) {
	c, err := genCorpus(cfg.sc.files)
	if err != nil {
		return nil, nil, err
	}
	l := &ladder{w: w, cfg: cfg, c: c, res: newResult(w, "traced", cfg.seed), t0: time.Now()}
	l.ops = newOpSource(w, c, cfg.sc, cfg.seed, 0).take(cfg.sc.prefix)
	for _, m := range perLayer {
		l.res.Metrics[m.Name] = 0
	}
	if err := l.measure(); err != nil {
		return nil, nil, err
	}
	return l.res, l.spans, nil
}

func (l *ladder) set(name string, v float64, samples int) {
	l.res.Metrics[name] = v
	if samples > 0 {
		l.res.Samples[name] = samples
	}
}

func (l *ladder) setMedian(name string, v []float64) { l.set(name, median(v), len(v)) }

// measure builds the twins, replays the prefix and names the numbers.
func (l *ladder) measure() error {
	w, ops := l.w, l.ops
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	stack := func() (*deployment, error) {
		d, err := deploy(w, l.c, l.cfg.tmp)
		if err == nil {
			cleanup = append(cleanup, d.close)
		}
		return d, err
	}

	d0, err := stack()
	if err != nil {
		return err
	}
	solo, m := l.alone(d0)

	// The ladder's twins, outermost first. A and A′ (the same with the
	// trace header) and B each need a whole serving stack.
	dA, err := stack()
	if err != nil {
		return err
	}
	dT, err := stack()
	if err != nil {
		return err
	}
	dB, err := stack()
	if err != nil {
		return err
	}
	front := layerServer
	if w.federated {
		front = layerGateway
	}
	A := &rung{layer: layerClient, b: clientBoundary{cl: dA.cl}}
	T := &rung{layer: layerClient + "+trace", b: clientBoundary{cl: dT.cl.WithTrace()}}
	B := &rung{layer: front, parent: layerClient, b: handlerBoundary{h: dB.front}}
	chain := []*rung{A, B}
	var C, D, E, F *rung
	var eng *engine.Engine
	dir, err := os.MkdirTemp(l.cfg.tmp, "twins-*")
	if err != nil {
		return err
	}
	cleanup = append(cleanup, func() { os.RemoveAll(dir) })
	if !w.federated {
		// C: the root Store, instrumented like the one a server wraps.
		stores, err := w.buildStores(l.c, filepath.Join(dir, "store"))
		if err != nil {
			return err
		}
		cleanup = append(cleanup, func() { stores[0].Close() })
		stores[0].Instrument(obs.NewRegistry())
		C = &rung{layer: layerStore, parent: layerServer, b: newStoreBoundary(stores[0])}
		// D: the engine under the store's config mapping.
		if eng, err = engine.Build(copyFiles(l.c.set.Files), w.engineConfig()); err != nil {
			return err
		}
		if w.durable {
			log, _, err := wal.Open(filepath.Join(dir, "engine-shard-0000.wal"), 0, wal.SyncAlways, wal.Options{})
			if err != nil {
				return err
			}
			cleanup = append(cleanup, func() { log.Close() })
			if err := eng.AttachWAL([]*wal.Log{log}); err != nil {
				return err
			}
		}
		D = &rung{layer: layerEngine, parent: layerStore, b: newEngineBoundary(eng)}
		chain = append(chain, C, D)
	}
	if w.oneShardReadOnly() {
		// E and F: the cluster deployment a one-shard engine builds, and
		// the exact queries of a tree built the same way.
		tree := func() *semtree.Tree {
			files := copyFiles(l.c.set.Files)
			norm := &metadata.Normalizer{}
			norm.Fit(files)
			cfg := w.engineConfig()
			return semtree.Build(semtree.PlaceSemantic(files, units, norm, cfg.Attrs), norm, cfg.Tree)
		}
		E = &rung{layer: layerCluster, parent: layerEngine, take: readsOnly,
			b: clusterBoundary{c: cluster.New(tree(), w.engineConfig().Cluster)}}
		F = &rung{layer: layerSemtree, parent: layerCluster, take: readsOnly, b: treeBoundary{t: tree()}}
		chain = append(chain, E, F)
	}
	l.replay(append([]*rung{T}, chain...)...)

	// The gate: neighbours on the ladder answered alike.
	for i := 0; i+1 < len(chain) && chain[i+1] != F; i++ {
		l.same(chain[i], chain[i+1])
	}
	l.same(A, T)
	l.same(A, solo)
	l.res.Ladder = l.rows(chain)
	l.finish(d0, m)

	for k, name := range classNames {
		if v := A.times(ops, ofClass(k)); len(v) > 0 {
			l.setMedian("client."+name+"_rt_us", v)
		}
	}
	topk := sortedCopy(A.times(ops, ofClass(classTopK)))
	l.set("client.topk_p99_us", percentile(topk, 0.99), len(topk))
	if writes := sortedCopy(A.times(ops, ofClass(classWrite))); len(writes) > 0 {
		l.set("client.write_p95_us", percentile(writes, 0.95), len(writes))
	}
	l.setMedian("client.net_self_us", selfTimes(ops, A, B, nil))
	l.traceMetrics(T)
	if base := median(A.times(ops, readsOnly)); base > 0 {
		l.set("bench.trace_overhead_ratio", median(T.times(ops, readsOnly))/base, len(ops))
	}
	if w.federated {
		l.setMedian("gateway.handler_us", B.times(ops, nil))
		return nil
	}
	l.setMedian("server.handler_us", B.times(ops, nil))
	l.setMedian("server.self_us", selfTimes(ops, B, C, nil))
	l.setMedian("store.do_us", C.times(ops, nil))
	l.setMedian("store.self_us", selfTimes(ops, C, D, nil))
	for k, name := range classNames {
		if v := D.times(ops, ofClass(k)); len(v) > 0 {
			l.setMedian("engine."+name+"_us", v)
		}
	}
	l.readScaling(eng)
	if w.durable {
		l.walLayer(dir)
	}
	if F == nil {
		return nil
	}
	l.setMedian("engine.self_us", selfTimes(ops, D, E, readsOnly))
	var msgs, nodes, searched, scanned, results float64
	n := 0
	for i := range ops {
		if !E.ran[i] || !F.ran[i] {
			continue
		}
		n++
		msgs += float64(E.out[i].messages)
		st := F.out[i].stats
		nodes += float64(st.NodesVisited)
		searched += float64(st.UnitsSearched)
		scanned += float64(st.RecordsScanned)
		results += float64(len(F.out[i].ids))
	}
	for k, name := range classNames[:classWrite] {
		l.setMedian("cluster."+name+"_us", E.times(ops, ofClass(k)))
		l.setMedian("cluster."+name+"_self_us", selfTimes(ops, E, F, ofClass(k)))
		l.setMedian("semtree."+name+"_us", F.times(ops, ofClass(k)))
	}
	if n > 0 && results > 0 {
		l.set("cluster.messages_per_query", msgs/float64(n), n)
		l.set("semtree.nodes_visited_per_query", nodes/float64(n), n)
		l.set("semtree.units_searched_per_query", searched/float64(n), n)
		l.set("semtree.records_scanned_per_result", scanned/results, n)
	}
	return nil
}

// alone drives the client against one stack with nothing else running,
// for what only an undisturbed replay can give — the process's
// allocation and GC pauses per op, the server's cache and WAL counters
// over the prefix — and returns the replay and the state its
// acknowledged writes must have left, for the output checks.
func (l *ladder) alone(d0 *deployment) (*rung, *mirror) {
	w, ops := l.w, l.ops
	var wal0 smartstore.WALStats
	if w.durable {
		wal0 = d0.stores[0].WALStats()
	}
	solo := &rung{layer: layerClient + "(alone)", b: clientBoundary{cl: d0.cl}}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	wall := l.replay(solo)
	runtime.ReadMemStats(&mem1)
	l.set("proc.alloc_bytes_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(len(ops)), len(ops))
	l.set("proc.gc_pause_total_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, int(mem1.NumGC-mem0.NumGC))
	m := newMirror(l.c)
	for i := range ops {
		if solo.ran[i] && !ops[i].isRead() {
			if err := m.apply(&ops[i], solo.out[i]); err != nil {
				l.res.fail("client: %v", err)
			}
		}
	}
	if st, err := d0.cl.Stats(); err != nil {
		l.res.fail("stats: %v", err)
	} else if !w.federated {
		ca := st.Server.Cache
		if look := ca.Hits + ca.Misses; look > 0 {
			l.set("server.cache_hit_ratio", float64(ca.Hits)/float64(look), int(look))
		}
		l.set("server.cache_evictions", float64(ca.Evictions), 0)
		l.set("server.cache_invalidations", float64(ca.Invalidations), 0)
		l.set("server.admission_rejected", float64(st.Server.Rejected), 0)
	}
	if w.durable {
		ws := d0.stores[0].WALStats()
		if gc := ws.GroupCommits - wal0.GroupCommits; gc > 0 {
			l.set("wal.records_per_fsync", float64(ws.GroupedRecords-wal0.GroupedRecords)/float64(gc), int(gc))
			l.set("wal.fsyncs_per_s", float64(gc)/wall.Seconds(), int(gc))
		}
		l.set("store.auto_checkpoints", float64(ws.AutoCheckpoints), 0)
	}
	if w.federated {
		l.mergeLayer(d0, solo)
	}
	l.wireLayer(solo)
	return solo, m
}

// finish runs the output checks on the stack that was driven alone:
// recalls against the exact state and, durable, crash recovery.
func (l *ladder) finish(d *deployment, m *mirror) {
	check := checkOps(l.w, l.c, l.cfg.sc.verifyOps)
	rc, err := checkServed(l.w, d, check, m.exact(check))
	if err != nil {
		l.res.fail("%v", err)
	}
	l.set("check.range_recall", rc.rangeRecall, rc.ranges)
	l.set("check.topk_recall", rc.topkRecall, rc.topks)
	if l.w.durable {
		took, err := crashAndRecover(l.w, d, m)
		if err != nil {
			l.res.fail("recovery: %v", err)
		}
		l.set("store.recover_s", took, 1)
	}
}

// same is the correctness gate between two boundaries: identical id
// sets for every read, identical ids and verdicts for every write.
func (l *ladder) same(a, b *rung) {
	for i := range l.ops {
		if !a.ran[i] || !b.ran[i] {
			continue
		}
		if !sameIDs(a.out[i].ids, b.out[i].ids) || a.out[i].found != b.out[i].found {
			l.res.Failed++
			l.res.fail("op %d (%s): %s answered %d ids (found=%v), %s %d ids (found=%v)", i, l.ops[i].Kind,
				a.layer, len(a.out[i].ids), a.out[i].found, b.layer, len(b.out[i].ids), b.out[i].found)
		}
	}
}

// traceMetrics reads the X-Smartstore-Trace answers of the traced
// replay: the server's phases and the engine's per-shard times, or on
// the gateway its per-backend times.
func (l *ladder) traceMetrics(T *rung) {
	phases := map[string][]float64{}
	var coverage, slowest, gwSelf []float64
	var visited, pruned, backends float64
	n, partial := 0, 0
	for i := range l.ops {
		tr := T.out[i].trace
		if !T.ran[i] || tr == nil {
			continue
		}
		n++
		var sum float64
		for _, p := range tr.Phases {
			phases[p.Name] = append(phases[p.Name], p.Ms*1e3)
			// merge is derived from execute, not an interval of its own.
			if p.Name != "merge" {
				sum += p.Ms
			}
		}
		if tr.TotalMs > 0 {
			coverage = append(coverage, sum/tr.TotalMs)
		}
		var slow float64
		for _, s := range tr.Shards {
			if s.Pruned {
				pruned++
				continue
			}
			visited++
			slow = max(slow, s.Ms*1e3)
		}
		if len(tr.Shards) > 0 {
			slowest = append(slowest, slow)
		}
		if l.w.federated {
			slow = 0
			for _, b := range tr.Backends {
				if b.Down {
					partial++
					continue
				}
				backends++
				slow = max(slow, b.Ms*1e3)
			}
			gwSelf = append(gwSelf, tr.TotalMs*1e3-slow)
		}
	}
	if n == 0 {
		l.res.fail("no traces came back from the traced replay")
		return
	}
	if l.w.federated {
		l.setMedian("gateway.self_us", gwSelf)
		l.set("gateway.backends_per_query", backends/float64(n), n)
		l.set("gateway.partial_responses", float64(partial), n)
		return
	}
	l.setMedian("server.trace_coverage", coverage)
	for _, p := range []string{"admission_wait", "decode", "cache_lookup", "execute", "merge", "encode"} {
		if v := phases[p]; len(v) > 0 {
			l.setMedian("server.trace_"+p+"_us", v)
		}
	}
	l.set("engine.shards_visited_per_query", visited/float64(n), n)
	l.set("engine.shards_pruned_per_query", pruned/float64(n), n)
	l.setMedian("engine.slowest_shard_us", slowest)
}

// wireLayer times the binary codec alone, on the requests the pass
// sent and the answers it got back.
func (l *ladder) wireLayer(A *rung) {
	var reqEnc, reqDec, respEnc, respDec, size []float64
	for i := range l.ops {
		o := &l.ops[i]
		if !A.ran[i] || !o.isRead() {
			continue
		}
		req := server.QueryRequest{WireQuery: server.QueryToWire(o.q)}
		t := time.Now()
		body, err := wire.EncodeRequest(&req)
		reqEnc = append(reqEnc, us(time.Since(t)))
		if err != nil {
			l.res.fail("wire: encode request %d: %v", i, err)
			continue
		}
		t = time.Now()
		_, err = wire.DecodeRequest(body)
		reqDec = append(reqDec, us(time.Since(t)))
		if err != nil {
			l.res.fail("wire: decode request %d: %v", i, err)
		}
		resp := wire.QueryResponse{Kind: o.Kind.String(), IDs: A.out[i].ids, Count: len(A.out[i].ids)}
		var buf bytes.Buffer
		t = time.Now()
		err = wire.EncodeResponse(&buf, &resp)
		respEnc = append(respEnc, us(time.Since(t)))
		if err != nil {
			l.res.fail("wire: encode response %d: %v", i, err)
			continue
		}
		size = append(size, float64(buf.Len()))
		t = time.Now()
		back, err := wire.DecodeResponseBytes(buf.Bytes())
		respDec = append(respDec, us(time.Since(t)))
		if err != nil || !sameIDs(back.IDs, resp.IDs) {
			l.res.fail("wire: response %d did not survive the codec: %v", i, err)
		}
	}
	l.setMedian("wire.req_encode_us", reqEnc)
	l.setMedian("wire.req_decode_us", reqDec)
	l.setMedian("wire.resp_encode_us", respEnc)
	l.setMedian("wire.resp_decode_us", respDec)
	l.set("wire.resp_bytes_per_op", mean(size), len(size))
}

// mergeLayer asks each backend directly and folds the lists here with
// the gateway's own merge functions, which times the merge alone and
// checks the gateway's answer against it.
func (l *ladder) mergeLayer(d *deployment, A *rung) {
	var union, topk []float64
	dups, n := 0, 0
	for i := range l.ops {
		o := &l.ops[i]
		if !A.ran[i] {
			continue
		}
		q := o.q
		q.Options.IncludeDists = o.Kind == trace.OpTopK
		var lists [][]uint64
		var cands [][]merge.Cand
		for _, cl := range d.backends {
			out, err := cl.Query(context.Background(), q)
			if err != nil {
				l.res.fail("merge: backend query %d: %v", i, err)
				continue
			}
			lists = append(lists, out.IDs)
			cs := make([]merge.Cand, len(out.IDs))
			for j, id := range out.IDs {
				cs[j] = merge.Cand{ID: id}
				if j < len(out.Dists) {
					cs[j].Dist = out.Dists[j]
				}
			}
			cands = append(cands, cs)
		}
		n++
		var merged []uint64
		t := time.Now()
		if o.Kind == trace.OpTopK {
			for _, c := range merge.TopK(cands, o.TopK.K) {
				merged = append(merged, c.ID)
			}
			topk = append(topk, us(time.Since(t)))
		} else {
			var d int
			merged, d = merge.Union(lists)
			union = append(union, us(time.Since(t)))
			dups += d
		}
		if !sameIDs(merged, A.out[i].ids) {
			l.res.Failed++
			l.res.fail("op %d (%s): gateway answered %d ids, merging its backends here gives %d", i, o.Kind, len(A.out[i].ids), len(merged))
		}
	}
	l.setMedian("merge.union_us", union)
	l.setMedian("merge.topk_us", topk)
	if n > 0 {
		l.set("merge.duplicates_per_query", float64(dups)/float64(n), n)
	}
}

// readScaling replays the prefix's reads on the engine twin with one
// caller, then with two at once, and reports the throughput ratio: 2.0
// means reads inside the engine overlap, 1.0 that they take turns.
func (l *ladder) readScaling(eng *engine.Engine) {
	var reads []op
	for i := range l.ops {
		if l.ops[i].isRead() {
			reads = append(reads, l.ops[i])
		}
	}
	pass := func(callers int) time.Duration {
		var wg sync.WaitGroup
		t := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := newEngineBoundary(eng)
				for i := range reads {
					if _, _, err := b.exec(&reads[i]); err != nil {
						l.res.fail("engine read scaling: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(t)
	}
	one, two := pass(1), pass(2)
	if two > 0 {
		l.set("engine.read_scaling_2c", 2*one.Seconds()/two.Seconds(), len(reads))
	}
}

// walLayer feeds a standalone log the records the prefix's writes
// produce, timing the stage and the wait for the fsync apart.
func (l *ladder) walLayer(dir string) {
	log, _, err := wal.Open(filepath.Join(dir, "standalone.wal"), 0, wal.SyncAlways, wal.Options{})
	if err != nil {
		l.res.fail("wal: %v", err)
		return
	}
	defer log.Close()
	var stage, wait []float64
	ids := idAlloc{next: uint64(len(l.c.set.Files))}
	for i := range l.ops {
		o := &l.ops[i]
		rec := wal.Record{Epoch: uint64(len(stage) + 1)}
		switch o.Kind {
		case trace.OpInsert:
			rec.Op, rec.Files = wal.OpInsert, []metadata.File{*ids.record(o)}
		case trace.OpDelete:
			rec.Op, rec.ID = wal.OpDelete, o.ID
		case trace.OpModify:
			rec.Op, rec.Files = wal.OpModify, []metadata.File{*o.File}
		default:
			continue
		}
		t := time.Now()
		done, err := log.AppendAsync(&rec)
		staged := time.Now()
		if err == nil {
			err = done()
		}
		acked := time.Now()
		if err != nil {
			l.res.fail("wal: append %d: %v", i, err)
			return
		}
		stage = append(stage, us(staged.Sub(t)))
		wait = append(wait, us(acked.Sub(staged)))
	}
	l.setMedian("wal.stage_us", stage)
	l.setMedian("wal.ack_wait_us", wait)
	if len(stage) > 0 {
		l.set("wal.bytes_per_write", float64(log.Stats().Bytes)/float64(len(stage)), len(stage))
	}
}
