package main

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scale fixes how much work one run does. The full scale is what every
// published number uses; quick exists so the tests finish in seconds.
type scale struct {
	files     int     // corpus size
	warmup    float64 // seconds of closed-loop load before the window opens
	window    float64 // measured seconds (overridden by -seconds)
	prefix    int     // ops replayed at every boundary of the traced pass
	setups    int     // deployments built per run; setup_s is their median
	verifyOps int     // read ops checked against the linear-scan truth
	hotPool   int     // distinct queries per client on read_hot
}

var (
	fullScale  = scale{files: 20000, warmup: 2, window: 20, prefix: 3000, setups: 15, verifyOps: 400, hotPool: 256}
	quickScale = scale{files: 2000, warmup: 0.3, window: 1, prefix: 200, setups: 3, verifyOps: 100, hotPool: 64}
)

const (
	units   = 60 // storage units, as in the paper's prototype
	clients = 2  // closed-loop callers; sized to this box's two cores
	slices  = 5  // the window is cut into this many parts and each metric is their median
	// storeSeed is the deployment's own seed. It is a constant: -seed
	// drives the op streams only, so the program under test receives
	// nothing but the generated inputs.
	storeSeed       = 1
	corpusSeed      = 42 // GenerateTrace("MSN", files, corpusSeed)
	checkSeed       = 99 // the recall check stream
	hotPoolSeed     = 7  // plus the client index: read_hot's query pools
	checkpointBytes = 512 << 10
)

// workload is one named deployment plus the op stream driven at it.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// Deployment shape.
	shards    int
	durable   bool // DataDir + DurabilityAlways + size-triggered checkpoints
	federated bool // gateway over two 1-shard backends holding half the corpus each
	// Stream shape.
	hot  bool // each client draws from a fixed pool with Zipf popularity
	spec trace.StreamSpec
}

func (w *workload) readOnly() bool {
	m := w.spec.Mix
	return m.Insert+m.Delete+m.Modify == 0
}

// oneShardReadOnly says whether the traced pass can go below the
// engine: the cluster and semtree twins are built the way a one-shard
// engine builds them, and take reads only.
func (w *workload) oneShardReadOnly() bool {
	return w.shards == 1 && !w.durable && !w.federated
}

var readMix = trace.Mix{Point: 2, Range: 3, TopK: 5}

var workloads = []*workload{
	{
		name: "read_uncached", shards: 1,
		why:  "1 shard, Zipf anchors, point 2:range 3:top-k 5, almost no repeats: engine, cluster, simnet and semtree do the work and both clients contend for the shard's query slot",
		spec: trace.StreamSpec{Mix: readMix, Dist: stats.Zipf},
	},
	{
		name: "read_hot", shards: 1, hot: true,
		why:  "same store and mix, each client repeats a pool of 256 queries: cache, admission, wire, HTTP and client do the work, the engine almost none",
		spec: trace.StreamSpec{Mix: readMix, Dist: stats.Zipf},
	},
	{
		name: "scan_sharded", shards: 4,
		why:  "4 shards, uniform anchors, 25% windows, point 1:range 8:top-k 1: large answers from every shard, so fan-out, record scan, merge and id streaming dominate",
		spec: trace.StreamSpec{Mix: trace.Mix{Point: 1, Range: 8, TopK: 1}, Dist: stats.Uniform, RangeWidth: 0.25},
	},
	{
		name: "write_durable", shards: 1, durable: true,
		why:  "1 shard on disk, fsync per ack, 512 KiB checkpoints, insert 4:delete 1:modify 1:point 1:range 1:top-k 2: WAL group commit, write lock, checkpoint stalls, cache invalidation",
		spec: trace.StreamSpec{Mix: trace.Mix{Insert: 4, Delete: 1, Modify: 1, Point: 1, Range: 1, TopK: 2}, Dist: stats.Zipf},
	},
	{
		name: "federated_read", shards: 1, federated: true,
		why:  "gateway over 2 one-shard backends with half the corpus each, read_uncached's stream: two wire hops, gateway fan-out and exact merge, so hop overhead dominates",
		spec: trace.StreamSpec{Mix: readMix, Dist: stats.Zipf},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef declares one reported metric. The tables below are the
// single list the program emits from; BENCHMARK.json repeats names,
// units, directions and bounds, and a test fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves pairs a per-layer metric with the end-to-end metric and
	// workload it is expected to move (README glossary, JSON report).
	Moves string
	// On lists the workloads a per-layer metric is measured on; nil
	// means all. Elsewhere it is emitted as 0, which reads "this layer
	// is not on this workload's path".
	On []string
}

func (m metricDef) appliesTo(w *workload) bool {
	if m.On == nil {
		return true
	}
	for _, n := range m.On {
		if n == w.name {
			return true
		}
	}
	return false
}

// endToEnd is what a caller of the service sees, measured with tracing
// off by the two closed-loop clients (recalls and set-up aside).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "point_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "range_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "topk_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "point_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "range_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "topk_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "range_recall", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "topk_recall", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_after_setup_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

var (
	oneShardRO = []string{"read_uncached", "read_hot"}
	// Everything but federated_read, whose front end is a gateway and
	// whose stores sit behind sockets: the workloads with a server, a
	// store and an engine twin.
	hasEngine = []string{"read_uncached", "read_hot", "scan_sharded", "write_durable"}
	durableOn = []string{"write_durable"}
	gatewayOn = []string{"federated_read"}
)

// perLayer is the traced pass: one client, a fixed op prefix replayed
// at successive boundaries. Times are medians in µs unless the name
// says otherwise; counts repeat exactly for a given seed.
var perLayer = []metricDef{
	// client: boundary A, internal/client over loopback TCP.
	{Name: "client.point_rt_us", Unit: "us", Better: "lower", Moves: "point_p50_ms on read_hot, federated_read"},
	{Name: "client.range_rt_us", Unit: "us", Better: "lower", Moves: "range_p50_ms on read_hot, federated_read"},
	{Name: "client.topk_rt_us", Unit: "us", Better: "lower", Moves: "topk_p50_ms on read_hot, federated_read"},
	{Name: "client.topk_p99_us", Unit: "us", Better: "lower", Moves: "topk_p95_ms everywhere (ungated tail)"},
	{Name: "client.write_rt_us", Unit: "us", Better: "lower", On: durableOn, Moves: "ops_per_s, op_p95_ms on write_durable"},
	{Name: "client.write_p95_us", Unit: "us", Better: "lower", On: durableOn, Moves: "op_p95_ms on write_durable"},
	{Name: "client.net_self_us", Unit: "us", Better: "lower", Moves: "*_p50_ms on read_hot, federated_read; little on scan_sharded"},

	// server: boundary B, server.ServeHTTP on a ResponseRecorder, plus
	// the server's own counters and trace phases.
	{Name: "server.handler_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "ops_per_s, point_p50_ms on read_hot"},
	{Name: "server.self_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "ops_per_s, point_p50_ms on read_hot"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", On: hasEngine, Moves: "ops_per_s on read_hot"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower", On: hasEngine, Moves: "ops_per_s on read_hot"},
	{Name: "server.cache_invalidations", Unit: "count", Better: "lower", On: hasEngine, Moves: "read *_p95_ms on write_durable"},
	{Name: "server.admission_rejected", Unit: "count", Better: "lower", On: hasEngine, Moves: "failed ops everywhere"},
	{Name: "server.trace_coverage", Unit: "ratio", Better: "higher", On: hasEngine, Moves: "none: how much of a request the phases explain"},
	{Name: "server.trace_admission_wait_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "*_p95_ms under load"},
	{Name: "server.trace_decode_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "ops_per_s on read_hot"},
	{Name: "server.trace_cache_lookup_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "ops_per_s on read_hot"},
	{Name: "server.trace_execute_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "*_p50_ms on read_uncached, scan_sharded"},
	{Name: "server.trace_merge_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "range_p50_ms on scan_sharded"},
	{Name: "server.trace_encode_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "range_p50_ms on scan_sharded"},

	// wire: the binary codec timed alone on the pass's real payloads.
	{Name: "wire.req_encode_us", Unit: "us", Better: "lower", Moves: "ops_per_s on read_hot"},
	{Name: "wire.req_decode_us", Unit: "us", Better: "lower", Moves: "ops_per_s on read_hot"},
	{Name: "wire.resp_encode_us", Unit: "us", Better: "lower", Moves: "range_p50_ms, ops_per_s on scan_sharded"},
	{Name: "wire.resp_decode_us", Unit: "us", Better: "lower", Moves: "range_p50_ms, ops_per_s on scan_sharded"},
	{Name: "wire.resp_bytes_per_op", Unit: "B", Better: "lower", Moves: "range_p50_ms on scan_sharded"},

	// store: boundary C, the root Store facade.
	{Name: "store.do_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "*_p50_ms on read_uncached"},
	{Name: "store.self_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "op_p95_ms on write_durable (checkpoint stalls)"},
	{Name: "store.auto_checkpoints", Unit: "count", Better: "lower", On: durableOn, Moves: "op_p95_ms on write_durable"},
	{Name: "store.recover_s", Unit: "s", Better: "lower", On: durableOn, Moves: "none: restart cost after a crash"},

	// engine: boundary D, engine.Engine built with the store's mapping.
	{Name: "engine.point_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "point_p50_ms on read_uncached"},
	{Name: "engine.range_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "range_p50_ms on read_uncached, scan_sharded"},
	{Name: "engine.topk_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "topk_p50_ms on read_uncached"},
	{Name: "engine.write_us", Unit: "us", Better: "lower", On: durableOn, Moves: "ops_per_s on write_durable"},
	{Name: "engine.self_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "ops_per_s on read_uncached"},
	{Name: "engine.read_scaling_2c", Unit: "ratio", Better: "higher", On: hasEngine, Moves: "ops_per_s, *_p95_ms on read_uncached (2.0 = reads overlap; lifts throughput, not 1-client latency)"},
	{Name: "engine.shards_visited_per_query", Unit: "count", Better: "lower", On: hasEngine, Moves: "range_p50_ms on scan_sharded"},
	{Name: "engine.shards_pruned_per_query", Unit: "count", Better: "higher", On: hasEngine, Moves: "range_p50_ms on scan_sharded"},
	{Name: "engine.slowest_shard_us", Unit: "us", Better: "lower", On: hasEngine, Moves: "range_p95_ms on scan_sharded (slowest shard sets the answer time)"},

	// cluster (simnet included): boundary E.
	{Name: "cluster.point_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "point_p50_ms on read_uncached"},
	{Name: "cluster.range_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on read_uncached"},
	{Name: "cluster.topk_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "topk_p50_ms on read_uncached"},
	{Name: "cluster.point_self_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "point_p50_ms on read_uncached; none on read_hot"},
	{Name: "cluster.range_self_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on read_uncached; none on read_hot"},
	{Name: "cluster.topk_self_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "topk_p50_ms, ops_per_s on read_uncached; none on read_hot"},
	{Name: "cluster.messages_per_query", Unit: "count", Better: "lower", On: oneShardRO, Moves: "topk_p50_ms on read_uncached"},

	// semtree: boundary F, the exact tree queries.
	{Name: "semtree.point_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "point_p50_ms on read_uncached"},
	{Name: "semtree.range_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on scan_sharded, read_uncached"},
	{Name: "semtree.topk_us", Unit: "us", Better: "lower", On: oneShardRO, Moves: "topk_p50_ms on read_uncached"},
	{Name: "semtree.nodes_visited_per_query", Unit: "count", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on scan_sharded"},
	{Name: "semtree.units_searched_per_query", Unit: "count", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on scan_sharded"},
	{Name: "semtree.records_scanned_per_result", Unit: "count", Better: "lower", On: oneShardRO, Moves: "range_p50_ms on scan_sharded; recalls must not move"},

	// merge: backends queried directly, lists merged in this program.
	{Name: "merge.union_us", Unit: "us", Better: "lower", On: gatewayOn, Moves: "range_p50_ms on federated_read"},
	{Name: "merge.topk_us", Unit: "us", Better: "lower", On: gatewayOn, Moves: "topk_p50_ms on federated_read"},
	{Name: "merge.duplicates_per_query", Unit: "count", Better: "lower", On: gatewayOn, Moves: "none: a misprovisioned federation"},

	// wal: a standalone wal.Log fed the pass's records.
	{Name: "wal.stage_us", Unit: "us", Better: "lower", On: durableOn, Moves: "ops_per_s on write_durable"},
	{Name: "wal.ack_wait_us", Unit: "us", Better: "lower", On: durableOn, Moves: "ops_per_s, op_p95_ms on write_durable"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher", On: durableOn, Moves: "ops_per_s on write_durable"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "lower", On: durableOn, Moves: "ops_per_s on write_durable"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower", On: durableOn, Moves: "ops_per_s on write_durable"},

	// gateway: boundary B on federated_read.
	{Name: "gateway.handler_us", Unit: "us", Better: "lower", On: gatewayOn, Moves: "*_p50_ms on federated_read"},
	{Name: "gateway.self_us", Unit: "us", Better: "lower", On: gatewayOn, Moves: "*_p50_ms on federated_read"},
	{Name: "gateway.backends_per_query", Unit: "count", Better: "lower", On: gatewayOn, Moves: "*_p50_ms on federated_read"},
	{Name: "gateway.partial_responses", Unit: "count", Better: "lower", On: gatewayOn, Moves: "recalls on federated_read"},

	// Process-wide, over the boundary-A replay.
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "*_p95_ms everywhere (GC share)"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "*_p95_ms everywhere (GC share)"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: cost of asking for X-Smartstore-Trace"},

	// The check stream's recalls on stack A after the prefix (and a
	// flush where it wrote): with one client these repeat exactly.
	{Name: "check.range_recall", Unit: "ratio", Better: "higher", Moves: "range_recall; after the prefix's writes on write_durable"},
	{Name: "check.topk_recall", Unit: "ratio", Better: "higher", Moves: "topk_recall; after the prefix's writes on write_durable"},
}
