// Package wire owns the query-path wire format of the smartstored
// metadata API: the request/response types POST /v1/query exchanges,
// and two interchangeable codecs over them — the original JSON
// encoding (the default), and a length-prefixed CRC-framed binary
// encoding (codec.go) negotiated per request with
// Accept/Content-Type: application/x-smartstore-bin. The server
// (internal/server), the federating gateway (internal/gateway) and the
// typed client (internal/client) all speak through this package, so a
// response decoded from either codec is the same Go value.
//
// Attribute dimensions travel as their short names ("mtime",
// "read_bytes", ...); values are raw attribute units, exactly like the
// library API. See DESIGN.md §5 for the endpoint reference and the
// byte-level frame layout.
package wire

import (
	"fmt"

	smartstore "repro"
	"repro/internal/metadata"
)

// Report is the virtual-time accounting of one operation: the engine's
// own report type, whose JSON tags are the wire names, so a report
// travels from the shard fan-in to the response body without a copy.
type Report = smartstore.QueryReport

// FileRecord is one file's metadata on the wire. A zero ID on insert
// asks the server to allocate one; the response echoes the assignment.
type FileRecord struct {
	ID    uint64             `json:"id,omitempty"` // unique file id; 0 on insert = allocate
	Path  string             `json:"path"`         // full path, the point-query key
	Attrs map[string]float64 `json:"attrs"`        // attribute short name → raw value
}

// RecordFromFile converts a stored file to its wire form.
func RecordFromFile(f *metadata.File) FileRecord {
	attrs := make(map[string]float64, int(metadata.NumAttrs))
	for a := metadata.Attr(0); a < metadata.NumAttrs; a++ {
		attrs[a.String()] = f.Attrs[a]
	}
	return FileRecord{ID: f.ID, Path: f.Path, Attrs: attrs}
}

// File converts a wire record to a metadata file, resolving attribute
// names. Unnamed attributes default to zero.
func (r FileRecord) File() (*metadata.File, error) {
	if r.Path == "" {
		return nil, fmt.Errorf("file record missing path")
	}
	f := &metadata.File{ID: r.ID, Path: r.Path}
	for name, v := range r.Attrs {
		a, err := metadata.ParseAttr(name)
		if err != nil {
			return nil, err
		}
		f.Attrs[a] = v
	}
	return f, nil
}

// parseAttrs resolves a wire attribute-name list.
func parseAttrs(names []string) ([]metadata.Attr, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("empty attribute list")
	}
	attrs := make([]metadata.Attr, len(names))
	for i, n := range names {
		a, err := metadata.ParseAttr(n)
		if err != nil {
			return nil, err
		}
		attrs[i] = a
	}
	return attrs, nil
}

// AttrNames converts an attribute subset to its wire names.
func AttrNames(attrs []metadata.Attr) []string {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.String()
	}
	return names
}

// WireQuery is the unified wire form of one smartstore.Query: a kind
// ("point", "range", "topk") plus that kind's dimensions plus per-query
// options. Unused fields are omitted.
type WireQuery struct {
	Kind  string    `json:"kind,omitempty"`  // "point", "range" or "topk"
	Path  string    `json:"path,omitempty"`  // point: the filename key
	Attrs []string  `json:"attrs,omitempty"` // range/topk: attribute dimension names
	Lo    []float64 `json:"lo,omitempty"`    // range: per-dimension lower bounds
	Hi    []float64 `json:"hi,omitempty"`    // range: per-dimension upper bounds
	Point []float64 `json:"point,omitempty"` // topk: the anchor point
	K     int       `json:"k,omitempty"`     // topk: neighbours wanted

	// Mode optionally overrides the store's query path for this query:
	// "offline" or "online" (empty = store default).
	Mode string `json:"mode,omitempty"`
	// Limit truncates the answer to at most Limit ids (0 = unlimited).
	Limit int `json:"limit,omitempty"`
	// IncludeRecords inlines full file records in the response.
	IncludeRecords bool `json:"include_records,omitempty"`
	// IncludeDists inlines each top-k answer id's true normalized
	// squared distance — what a federating gateway needs to merge
	// per-backend answers exactly. Ignored by point and range queries.
	IncludeDists bool `json:"include_dists,omitempty"`
}

// Query resolves the wire form to a validated smartstore.Query. Every
// failure wraps smartstore.ErrInvalidQuery.
func (wq WireQuery) Query() (smartstore.Query, error) {
	kind, err := smartstore.ParseQueryKind(wq.Kind)
	if err != nil {
		return smartstore.Query{}, err
	}
	mode, err := smartstore.ParseQueryMode(wq.Mode)
	if err != nil {
		return smartstore.Query{}, err
	}
	q := smartstore.Query{
		Kind:  kind,
		Path:  wq.Path,
		Lo:    wq.Lo,
		Hi:    wq.Hi,
		Point: wq.Point,
		K:     wq.K,
		Options: smartstore.QueryOptions{
			Mode:           mode,
			Limit:          wq.Limit,
			IncludeRecords: wq.IncludeRecords,
			IncludeDists:   wq.IncludeDists,
		},
	}
	if kind == smartstore.KindPoint {
		if wq.Path == "" {
			return smartstore.Query{}, fmt.Errorf("%w: point query missing path", smartstore.ErrInvalidQuery)
		}
	} else {
		attrs, err := parseAttrs(wq.Attrs)
		if err != nil {
			return smartstore.Query{}, fmt.Errorf("%w: %v", smartstore.ErrInvalidQuery, err)
		}
		q.Attrs = attrs
	}
	if err := q.Validate(); err != nil {
		return smartstore.Query{}, err
	}
	return q, nil
}

// QueryToWire converts a library query to its wire form — the encoding
// the typed client sends to POST /v1/query.
func QueryToWire(q smartstore.Query) WireQuery {
	wq := WireQuery{
		Kind:           q.Kind.String(),
		Path:           q.Path,
		Lo:             q.Lo,
		Hi:             q.Hi,
		Point:          q.Point,
		K:              q.K,
		Mode:           q.Options.Mode.String(),
		Limit:          q.Options.Limit,
		IncludeRecords: q.Options.IncludeRecords,
		IncludeDists:   q.Options.IncludeDists,
	}
	if len(q.Attrs) > 0 {
		wq.Attrs = AttrNames(q.Attrs)
	}
	return wq
}

// QueryRequest is the body of POST /v1/query: either one query inline
// (the embedded WireQuery fields) or a batch via Queries. A non-empty
// Queries takes precedence; the batch executes concurrently under one
// admission ticket.
type QueryRequest struct {
	WireQuery
	// Queries, when non-empty, makes the request a batch.
	Queries []WireQuery `json:"queries,omitempty"`
}

// BatchQueryResponse answers a batch POST /v1/query: one result per
// query, in request order. A query that failed after admission carries
// its message in Error with zeroed results.
type BatchQueryResponse struct {
	// Results holds one answer per request query, in request order.
	Results []QueryResponse `json:"results"`
}

// QueryResponse answers every query form — single or batch item.
// Cached reports whether the
// result was served from the query cache (in which case the report
// replays the accounting of the original execution); Records carries
// inline file records when the query asked for them; Truncated reports
// that a limit cut the answer; Error is set only on batch items that
// failed after admission.
type QueryResponse struct {
	Kind      string   `json:"kind,omitempty"`      // echo of the query kind
	IDs       []uint64 `json:"ids"`                 // answer ids (top-k: ascending distance)
	Count     int      `json:"count"`               // len(IDs) before any Limit cut
	Truncated bool     `json:"truncated,omitempty"` // a limit cut the answer
	Cached    bool     `json:"cached"`              // served from the query cache
	// Dists carries, aligned with IDs, each top-k candidate's true
	// normalized squared distance when the query asked for
	// include_dists.
	Dists []float64 `json:"dists,omitempty"`
	// Records inlines full file records when the query asked for them.
	Records []FileRecord `json:"records,omitempty"`
	// Partial flags an answer computed without every relevant backend —
	// a gateway degraded by a down member answers with what the healthy
	// backends hold instead of failing, and marks the gap here. A
	// single-store server never sets it.
	Partial bool `json:"partial,omitempty"`
	// Report carries the virtual-time accounting of the execution.
	Report Report `json:"report"`
	// Trace is the per-phase timing breakdown, present only when the
	// request carried the X-Smartstore-Trace header.
	Trace *TraceWire `json:"trace,omitempty"`
	// Error is set only on batch items that failed after admission.
	Error string `json:"error,omitempty"`
}

// TraceWire is the inline wire form of a request trace: real wall
// times of this request, not virtual-time accounting (that is Report).
// Phases appear in serving order: admission_wait, decode, cache_lookup,
// execute, merge (derived: execute minus the slowest shard), encode.
type TraceWire struct {
	// TotalMs is the request's total wall time, admission wait through
	// response encode.
	TotalMs float64 `json:"total_ms"`
	// Phases lists the serving phases in order with their wall times.
	Phases []PhaseWire `json:"phases"`
	// Shards breaks the execute phase down per engine shard.
	Shards []ShardWire `json:"shards,omitempty"`
	// Backends breaks a gateway's execute phase down per backend,
	// nesting each backend's own trace when the backend returned one.
	Backends []BackendTraceWire `json:"backends,omitempty"`
}

// BackendTraceWire is one backend's share of a gateway fan-out.
type BackendTraceWire struct {
	Backend string  `json:"backend"` // the backend's configured name
	Ms      float64 `json:"ms"`      // wall time of this backend's call
	// Down marks a backend that was skipped (marked unhealthy) or
	// failed mid-query.
	Down bool `json:"down,omitempty"`
	// Trace is the backend's own per-phase breakdown, propagated when
	// the gateway forwarded the trace header.
	Trace *TraceWire `json:"trace,omitempty"`
}

// PhaseWire is one named serving phase.
type PhaseWire struct {
	Name string  `json:"name"` // phase name (admission_wait, decode, ...)
	Ms   float64 `json:"ms"`   // phase wall time
}

// ShardWire is one shard's share of the execute phase. A pruned shard
// was rejected by its root MBR/Bloom filter without executing.
type ShardWire struct {
	Shard  int     `json:"shard"`            // shard index
	Ms     float64 `json:"ms"`               // shard execution wall time
	Pruned bool    `json:"pruned,omitempty"` // rejected by root MBR/Bloom, not executed
}

// ErrorResponse is the body of every non-2xx reply. Errors are always
// JSON, in both codecs — a client inspects the status code before it
// picks a decoder.
type ErrorResponse struct {
	Error string `json:"error"` // human-readable failure message
}
