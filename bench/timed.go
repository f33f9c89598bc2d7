package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	smartstore "repro"
)

// runConfig is what one pass needs besides the workload.
type runConfig struct {
	sc   scale
	seed uint64
	tmp  string // scratch directory inside the checkout
}

// result is one pass over one workload.
type result struct {
	Workload  string             `json:"workload"`
	Pass      string             `json:"pass"` // "timed" or "traced"
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of measurements behind each timing.
	Samples map[string]int `json:"samples,omitempty"`
	// Ladder is the traced pass's boundary and self times per op class.
	Ladder   []ladderRow `json:"ladder,omitempty"`
	Problems []string    `json:"problems,omitempty"`
}

func newResult(w *workload, pass string, seed uint64) *result {
	return &result{Workload: w.name, Pass: pass, Seed: seed, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// sample is one timed call of the closed loop, in ns from the start of
// the load.
type sample struct {
	class      uint8
	start, end int64
}

// ack is one acknowledged mutation, kept to rebuild the exact state
// the store must hold.
type ack struct {
	o   op
	out outcome
}

// setUp builds the workload's deployment sc.setups times, keeps the
// last, and reports the median build time. Trace generation, Build,
// listen and the gateway bootstrap are all inside the timed part.
func setUp(w *workload, cfg runConfig) (*corpus, *deployment, float64, error) {
	var times []float64
	var c *corpus
	var d *deployment
	for i := 0; i < cfg.sc.setups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if c, err = genCorpus(cfg.sc.files); err != nil {
			return nil, nil, 0, err
		}
		if d, err = deploy(w, c, cfg.tmp); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, d, median(times), nil
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// timedPass measures the end-to-end metrics: tracing off, clients
// closed-loop callers over loopback TCP, a warm-up and then the window.
func timedPass(w *workload, cfg runConfig) (*result, error) {
	res := newResult(w, "timed", cfg.seed)
	c, d, setupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.Metrics["setup_s"] = setupS
	res.Metrics["heap_after_setup_mb"] = liveHeapMB()

	// The recalls are those of the deployment as built: the check stream
	// runs before the load, where the answer depends on nothing but the
	// corpus and the program, so any change in it is a change in the
	// program.
	check := checkOps(w, c, cfg.sc.verifyOps)
	want := newMirror(c).exact(check)
	built, err := checkServed(w, d, check, want)
	if err != nil {
		res.fail("before the load: %v", err)
	}
	res.Metrics["range_recall"] = built.rangeRecall
	res.Metrics["topk_recall"] = built.topkRecall
	res.Samples["range_recall"] = built.ranges
	res.Samples["topk_recall"] = built.topks

	warm := time.Duration(cfg.sc.warmup * float64(time.Second))
	window := time.Duration(cfg.sc.window * float64(time.Second))
	samples := make([][]sample, clients)
	acks := make([][]ack, clients)
	failed := make([]int, clients)
	firstErr := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(warm + window)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			src := newOpSource(w, c, cfg.sc, cfg.seed, ci)
			b := clientBoundary{cl: d.cl}
			for {
				o := src.next()
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				out, dur, err := b.exec(&o)
				samples[ci] = append(samples[ci], sample{
					class: uint8(classOf(o.Kind)),
					start: int64(t0.Sub(start)), end: int64(t0.Sub(start) + dur),
				})
				if err != nil {
					failed[ci]++
					if firstErr[ci] == nil {
						firstErr[ci] = err
					}
					continue
				}
				if !o.isRead() {
					acks[ci] = append(acks[ci], ack{o, out})
				}
			}
		}(ci)
	}
	wg.Wait()

	for ci := range samples {
		res.Attempted += len(samples[ci])
		res.Failed += failed[ci]
		if firstErr[ci] != nil {
			res.fail("client %d: %d ops failed, first: %v", ci, failed[ci], firstErr[ci])
		}
	}
	windowMetrics(res, samples, int64(warm), int64(warm+window))

	// Outputs: the served answers against the exact state, and on the
	// durable workload the state a crash would leave behind.
	m := newMirror(c)
	for ci := range acks {
		for i := range acks[ci] {
			if err := m.apply(&acks[ci][i].o, acks[ci][i].out); err != nil {
				res.fail("client %d: %v", ci, err)
			}
		}
	}
	// The same stream again after the load, against the state the
	// acknowledged writes must have left: points exact; on a read-only
	// workload the recalls must not have moved, on a writing one they
	// are reported beside the gated ones.
	if !w.readOnly() {
		want = m.exact(check)
	}
	after, err := checkServed(w, d, check, want)
	switch {
	case err != nil:
		res.fail("after the load: %v", err)
	case w.readOnly() && after != built:
		res.fail("recalls moved under a read-only load: %+v, then %+v", built, after)
	case !w.readOnly():
		res.Metrics["range_recall_after_load"] = after.rangeRecall
		res.Metrics["topk_recall_after_load"] = after.topkRecall
		res.Samples["range_recall_after_load"] = after.ranges
		res.Samples["topk_recall_after_load"] = after.topks
	}
	if w.durable {
		if _, err := crashAndRecover(w, d, m); err != nil {
			res.fail("recovery: %v", err)
		}
	}
	return res, nil
}

// windowMetrics folds the clients' samples into the end-to-end timing
// metrics. Only calls that started and ended inside the window count.
// The window is cut into equal slices and every metric is the median of
// its per-slice values, so one disturbed second moves one slice and not
// the result.
func windowMetrics(res *result, samples [][]sample, from, to int64) {
	type bucket struct {
		n     int
		class [numClasses][]float64
		all   []float64
	}
	bs := make([]bucket, slices)
	width := (to - from) / slices
	for _, cs := range samples {
		for _, s := range cs {
			if s.start < from || s.end > to {
				continue
			}
			i := int((s.end - from) / width)
			if i >= slices {
				i = slices - 1
			}
			d := float64(s.end-s.start) / 1e6
			bs[i].n++
			bs[i].class[s.class] = append(bs[i].class[s.class], d)
			bs[i].all = append(bs[i].all, d)
		}
	}
	var rate, allP95 []float64
	var p50, p95 [numClasses][]float64
	count := [numClasses]int{}
	total := 0
	for i := range bs {
		b := &bs[i]
		total += b.n
		rate = append(rate, float64(b.n)/(float64(width)/1e9))
		sort.Float64s(b.all)
		allP95 = append(allP95, percentile(b.all, 0.95))
		for k := range b.class {
			if len(b.class[k]) == 0 {
				continue
			}
			sort.Float64s(b.class[k])
			count[k] += len(b.class[k])
			p50[k] = append(p50[k], percentile(b.class[k], 0.50))
			p95[k] = append(p95[k], percentile(b.class[k], 0.95))
		}
	}
	res.Metrics["ops_per_s"] = median(rate)
	res.Samples["ops_per_s"] = total
	res.Metrics["op_p95_ms"] = median(allP95)
	res.Samples["op_p95_ms"] = total
	for k, name := range classNames {
		if count[k] == 0 {
			continue
		}
		res.Metrics[name+"_p50_ms"] = median(p50[k])
		res.Metrics[name+"_p95_ms"] = median(p95[k])
		res.Samples[name+"_p50_ms"] = count[k]
		res.Samples[name+"_p95_ms"] = count[k]
	}
}

// crashAndRecover abandons the durable store without closing it — the
// process state a kill leaves, minus the kill — reopens its directory
// with Open and checks every acknowledged write against the mirror. It
// returns how long Open took.
func crashAndRecover(w *workload, d *deployment, m *mirror) (float64, error) {
	d.stopServing()
	old := d.stores[0]
	d.stores = nil // abandoned, never closed
	// A size-triggered checkpoint may still be running; it finishes by
	// dropping the segments it covered, which takes the log back under
	// the threshold. Reopening earlier would race it for the directory.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var live int64
		for _, n := range old.WALSizes() {
			live += n
		}
		if live < checkpointBytes || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	t0 := time.Now()
	re, err := smartstore.Open(w.storeConfig(d.dir))
	took := time.Since(t0).Seconds()
	if err != nil {
		return took, err
	}
	err = m.checkStore(re)
	re.Close()
	// Only now, with the verdict in, stop the abandoned store's
	// background loops and let go of its memory. Its final checkpoint
	// collides with the segments the reopened store made and fails; the
	// directory is about to be deleted either way.
	_ = old.Close()
	return took, err
}
