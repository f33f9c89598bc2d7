// Wire format of the smartstored HTTP metadata API, shared by the
// server handlers and the typed client (internal/client). The
// query-path types — everything POST /v1/query exchanges — live in
// internal/wire (which also owns the binary codec) and are aliased
// here so existing callers keep compiling; the mutation and stats
// types below remain server-owned and JSON-only. Attribute
// dimensions travel as their short names ("mtime", "read_bytes", ...);
// values are raw attribute units, exactly like the library API. See
// DESIGN.md §5 for the endpoint reference with curl examples.
package server

import (
	"runtime"
	"runtime/debug"

	smartstore "repro"
	"repro/internal/metadata"
	"repro/internal/wire"
)

// Aliases for the query-path wire types, moved to internal/wire so the
// server, gateway and client share one codec-agnostic definition.
type (
	// Report is the virtual-time accounting of one operation.
	Report = wire.Report
	// FileRecord is one file's metadata on the wire.
	FileRecord = wire.FileRecord
	// WireQuery is the unified wire form of one smartstore.Query.
	WireQuery = wire.WireQuery
	// QueryRequest is the body of POST /v1/query.
	QueryRequest = wire.QueryRequest
	// QueryResponse answers every query form.
	QueryResponse = wire.QueryResponse
	// BatchQueryResponse answers a batch POST /v1/query.
	BatchQueryResponse = wire.BatchQueryResponse
	// TraceWire is the inline wire form of a request trace.
	TraceWire = wire.TraceWire
	// BackendTraceWire is one backend's share of a gateway fan-out.
	BackendTraceWire = wire.BackendTraceWire
	// PhaseWire is one named serving phase.
	PhaseWire = wire.PhaseWire
	// ShardWire is one shard's share of the execute phase.
	ShardWire = wire.ShardWire
	// ErrorResponse is the body of every non-2xx reply.
	ErrorResponse = wire.ErrorResponse
)

// RecordFromFile converts a stored file to its wire form.
func RecordFromFile(f *metadata.File) FileRecord { return wire.RecordFromFile(f) }

// AttrNames converts an attribute subset to its wire names.
func AttrNames(attrs []metadata.Attr) []string { return wire.AttrNames(attrs) }

// QueryToWire converts a library query to its wire form — the encoding
// the typed client sends to POST /v1/query.
func QueryToWire(q smartstore.Query) WireQuery { return wire.QueryToWire(q) }

// InsertRequest inserts a batch of files in one admission.
type InsertRequest struct {
	Files []FileRecord `json:"files"`
}

// InsertResponse echoes the ids assigned to the batch, in input order.
type InsertResponse struct {
	Inserted int      `json:"inserted"`
	IDs      []uint64 `json:"ids"`
	Epoch    uint64   `json:"epoch"`
	Report   Report   `json:"report"`
}

// DeleteRequest removes a file by id.
type DeleteRequest struct {
	ID uint64 `json:"id"`
}

// ModifyRequest updates an existing file's attributes with merge
// semantics: attributes not named in File.Attrs keep their stored
// values, so a partial map updates only what it names. Path is
// immutable on modify and ignored.
type ModifyRequest struct {
	File FileRecord `json:"file"`
}

// MutateResponse answers delete and modify.
type MutateResponse struct {
	Found  bool   `json:"found"`
	Epoch  uint64 `json:"epoch"`
	Report Report `json:"report"`
}

// FlushResponse answers an explicit replica propagation.
type FlushResponse struct {
	Epoch uint64 `json:"epoch"`
}

// StoreStats and ShardStats are the "store" section of /v1/stats and
// one row of its per_shard breakdown: the engine's own structs, carried
// to the wire as they are.
type (
	StoreStats = smartstore.Stats
	ShardStats = smartstore.ShardStats
)

// CacheStats reports query-cache effectiveness.
type CacheStats struct {
	Entries       int    `json:"entries"`
	MaxEntries    int    `json:"max_entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// ServerStats reports the serving layer's own counters.
type ServerStats struct {
	UptimeSec float64    `json:"uptime_sec"`
	Requests  uint64     `json:"requests"`
	Rejected  uint64     `json:"rejected"`
	Workers   int        `json:"workers"`
	MaxQueue  int        `json:"max_queue"`
	Cache     CacheStats `json:"cache"`
}

// WALStats reports a durable store's write-ahead-log counters: segment
// inventory, group-commit effectiveness (grouped_records /
// group_commits is the achieved batching factor), and checkpoint
// activity. Absent on an in-memory store.
type WALStats = smartstore.WALStats

// PlacementWire summarizes a store's semantic placement for a
// federating gateway: the placement attributes, the file-count-weighted
// centroid in raw attribute units, the raw normalization bounds per
// attribute, and the largest stored file id (the base a gateway
// allocates fresh ids above).
type PlacementWire struct {
	Attrs     []string  `json:"attrs"`
	Centroid  []float64 `json:"centroid"`
	Lo        []float64 `json:"lo"`
	Hi        []float64 `json:"hi"`
	MaxFileID uint64    `json:"max_file_id"`
}

// BackendWire is one backend's membership row in a gateway's stats.
type BackendWire struct {
	Backend string `json:"backend"`
	Healthy bool   `json:"healthy"`
	Files   int    `json:"files"`
	Epoch   uint64 `json:"epoch"`
	// Active is the address currently serving this member — the
	// follower's after a failover, Backend's otherwise. FailedOver
	// reports that the member has been switched to its follower.
	Active     string `json:"active,omitempty"`
	FailedOver bool   `json:"failed_over,omitempty"`
}

// GatewayWire is the gateway's own stats section: the static
// membership with per-backend health, and the healthy count.
type GatewayWire struct {
	Backends []BackendWire `json:"backends"`
	Healthy  int           `json:"healthy"`
}

// StatsResponse answers GET /v1/stats. Placement is present on a
// single store (what a gateway reads at bootstrap); Gateway is present
// only on a gateway, whose Store section aggregates across the healthy
// backends.
type StatsResponse struct {
	Store     StoreStats     `json:"store"`
	Server    ServerStats    `json:"server"`
	WAL       *WALStats      `json:"wal,omitempty"`
	Placement *PlacementWire `json:"placement,omitempty"`
	Gateway   *GatewayWire   `json:"gateway,omitempty"`
	Build     BuildWire      `json:"build"`
}

// BuildWire identifies the serving binary: the Go toolchain it was
// built with and the main module's path and version, plus the VCS stamp
// when the build had one. Fields the build did not stamp stay empty.
type BuildWire struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

// readBuild reads the binary's embedded build information.
func readBuild() BuildWire {
	b := BuildWire{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module, b.Version = bi.Main.Path, bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		}
	}
	return b
}
