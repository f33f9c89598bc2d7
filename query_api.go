package smartstore

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/query"
)

// ErrInvalidQuery tags every validation failure returned by Store.Do,
// so boundary layers can map it to a client error (HTTP 400) with
// errors.Is while other failures stay server-side.
var ErrInvalidQuery = errors.New("invalid query")

// ErrInvalidBatch tags InsertBatch's validation failures (a zero or
// duplicate id) the same way; any other InsertBatch error is the
// store's own — on a durable store, a WAL failure.
var ErrInvalidBatch = engine.ErrInvalidBatch

// QueryKind selects which of the three paper query classes a Query is.
type QueryKind int

const (
	// KindPoint is an exact-pathname lookup (§3.3.3).
	KindPoint QueryKind = iota
	// KindRange is a multi-dimensional range query (§3.3.1).
	KindRange
	// KindTopK is a top-k nearest-neighbour query (§3.3.2).
	KindTopK
)

// String returns the wire name of the kind ("point", "range", "topk").
func (k QueryKind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindRange:
		return "range"
	case KindTopK:
		return "topk"
	}
	return fmt.Sprintf("QueryKind(%d)", int(k))
}

// ParseQueryKind resolves a wire kind name — the inverse of
// QueryKind.String.
func ParseQueryKind(name string) (QueryKind, error) {
	switch name {
	case "point":
		return KindPoint, nil
	case "range":
		return KindRange, nil
	case "topk":
		return KindTopK, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrInvalidQuery, name)
}

// QueryMode optionally overrides the store's configured execution path
// for one query. The zero value defers to the store default, so plain
// Query literals behave like the legacy methods.
type QueryMode int

const (
	// ModeDefault uses the store's configured Mode.
	ModeDefault QueryMode = iota
	// ModeOffline forces the off-line pre-processing path (§3.4).
	ModeOffline
	// ModeOnline forces the on-line multicast path (§3.3).
	ModeOnline
)

// String returns the wire name of the mode ("", "offline", "online").
func (m QueryMode) String() string {
	switch m {
	case ModeDefault:
		return ""
	case ModeOffline:
		return "offline"
	case ModeOnline:
		return "online"
	}
	return fmt.Sprintf("QueryMode(%d)", int(m))
}

// ParseQueryMode resolves a wire mode name; the empty string is
// ModeDefault.
func ParseQueryMode(name string) (QueryMode, error) {
	switch name {
	case "", "default":
		return ModeDefault, nil
	case "offline":
		return ModeOffline, nil
	case "online":
		return ModeOnline, nil
	}
	return 0, fmt.Errorf("%w: unknown mode %q", ErrInvalidQuery, name)
}

// QueryOptions carries per-query execution options. The zero value
// reproduces the legacy behaviour: store-default mode, no limit, ids
// only.
type QueryOptions struct {
	// Mode overrides the store's configured query path for this query.
	Mode QueryMode
	// Limit truncates the answer to at most Limit ids (0 = unlimited);
	// Result.Truncated reports whether anything was cut.
	Limit int
	// IncludeRecords projects full File records into Result.Records so
	// the answer needs no follow-up per-id lookups.
	IncludeRecords bool
	// IncludeDists resolves each top-k answer id's true normalized
	// squared distance into Result.Dists — what a federating gateway
	// needs to merge per-store answers exactly. Ignored by point and
	// range queries.
	IncludeDists bool
}

// Query is one composable request against the store: a kind plus its
// dimensions plus per-query options. Build one with NewPointQuery,
// NewRangeQuery or NewTopKQuery, or as a literal.
type Query struct {
	Kind QueryKind

	// Path is the exact pathname of a point query.
	Path string

	// Attrs names the queried dimensions of range and top-k queries.
	Attrs []Attr
	// Lo, Hi bound each dimension of a range query (raw units).
	Lo, Hi []float64
	// Point is the reference point of a top-k query (raw units).
	Point []float64
	// K is the top-k answer size.
	K int

	Options QueryOptions
}

// NewPointQuery builds an exact-pathname lookup.
func NewPointQuery(path string) Query {
	return Query{Kind: KindPoint, Path: path}
}

// NewRangeQuery builds a multi-dimensional range query over attrs with
// per-dimension bounds [lo[i], hi[i]] in raw attribute units.
func NewRangeQuery(attrs []Attr, lo, hi []float64) Query {
	return Query{Kind: KindRange, Attrs: attrs, Lo: lo, Hi: hi}
}

// NewTopKQuery builds a top-k nearest-neighbour query around point.
func NewTopKQuery(attrs []Attr, point []float64, k int) Query {
	return Query{Kind: KindTopK, Attrs: attrs, Point: point, K: k}
}

// WithOptions returns a copy of q carrying the given options.
func (q Query) WithOptions(o QueryOptions) Query {
	q.Options = o
	return q
}

// Validate reports whether q is well-formed; every failure wraps
// ErrInvalidQuery. Point queries accept any path (an unknown one simply
// matches nothing); range and top-k require consistent non-empty
// dimensions, top-k requires k ≥ 1, and Limit must not be negative.
func (q Query) Validate() error {
	if q.Options.Limit < 0 {
		return fmt.Errorf("%w: negative limit %d", ErrInvalidQuery, q.Options.Limit)
	}
	switch q.Options.Mode {
	case ModeDefault, ModeOffline, ModeOnline:
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrInvalidQuery, int(q.Options.Mode))
	}
	switch q.Kind {
	case KindPoint:
		return nil
	case KindRange:
		if len(q.Attrs) == 0 || len(q.Attrs) != len(q.Lo) || len(q.Lo) != len(q.Hi) {
			return fmt.Errorf("%w: range dims %d attrs / %d lo / %d hi",
				ErrInvalidQuery, len(q.Attrs), len(q.Lo), len(q.Hi))
		}
		return nil
	case KindTopK:
		if len(q.Attrs) == 0 || len(q.Attrs) != len(q.Point) {
			return fmt.Errorf("%w: topk dims %d attrs / %d point values",
				ErrInvalidQuery, len(q.Attrs), len(q.Point))
		}
		if q.K < 1 {
			return fmt.Errorf("%w: k %d", ErrInvalidQuery, q.K)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrInvalidQuery, int(q.Kind))
}

// Result is the answer to one Query.
type Result struct {
	// IDs are the matching file ids (for top-k, in ascending distance).
	IDs []uint64
	// Dists carries, aligned with IDs, each candidate's true normalized
	// squared distance for top-k queries run with
	// QueryOptions.IncludeDists.
	Dists []float64
	// Records carries the full metadata record per id, in IDs order,
	// when QueryOptions.IncludeRecords is set.
	Records []File
	// Truncated reports that QueryOptions.Limit cut the answer.
	Truncated bool
	// Report is the virtual-time accounting of the execution.
	Report QueryReport
	// Shards lists the engine shard indices the query fanned out to —
	// the exact shard set whose state the answer is a function of. The
	// set is data-independent (routing reads only the query and the
	// frozen placement centroids), so a cache keyed on these shards'
	// epochs can never serve a stale answer.
	Shards []int
}

// Do executes one query. It is the single entry point all query paths
// share: PointQuery, RangeQuery and TopKQuery are thin wrappers, and
// the wire layer's /v1/query endpoint calls it directly.
//
// Do validates before touching the store and returns errors — wrapping
// ErrInvalidQuery — where the legacy constructors panicked. The query
// then fans out to the relevant engine shards in parallel: range
// queries skip shards whose root MBR misses the query rectangle, top-k
// answers merge by true normalized distance, and the report aggregates
// max-latency / summed-messages across shards. The context is honoured
// between routing phases: before admission, while each shard waits for
// its deployment's query slot, and again between query execution and
// record projection; a cancelled context returns ctx.Err().
func (s *Store) Do(ctx context.Context, q Query) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	online := s.cfg.Mode == OnLine
	switch q.Options.Mode {
	case ModeOnline:
		online = true
	case ModeOffline:
		online = false
	}
	opts := engine.QueryOpts{
		Online:         online,
		Limit:          q.Options.Limit,
		IncludeRecords: q.Options.IncludeRecords,
		IncludeDists:   q.Options.IncludeDists,
	}

	var ans engine.Answer
	var err error
	switch q.Kind {
	case KindPoint:
		ans, err = s.eng.Point(ctx, query.Point{Filename: q.Path}, opts)
	case KindRange:
		rq, qerr := query.MakeRange(q.Attrs, q.Lo, q.Hi)
		if qerr != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrInvalidQuery, qerr)
		}
		ans, err = s.eng.Range(ctx, rq, opts)
	case KindTopK:
		tq, qerr := query.MakeTopK(q.Attrs, q.Point, q.K)
		if qerr != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrInvalidQuery, qerr)
		}
		ans, err = s.eng.TopK(ctx, tq, opts)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		IDs:       ans.IDs,
		Dists:     ans.Dists,
		Records:   ans.Records,
		Truncated: ans.Truncated,
		Report:    ans.Report,
		Shards:    ans.Targets,
	}, nil
}

// PointQuery looks up file metadata by exact pathname (§3.3.3). It is a
// compatibility wrapper over Do.
func (s *Store) PointQuery(filename string) ([]uint64, QueryReport) {
	r, err := s.Do(context.Background(), NewPointQuery(filename))
	if err != nil {
		panic(err.Error())
	}
	return r.IDs, r.Report
}

// RangeQuery finds all files whose attrs[i] lies within [lo[i], hi[i]]
// (§3.3.1). Values are in raw attribute units. It is a compatibility
// wrapper over Do and keeps the legacy contract of panicking on
// mismatched dimensions; use Do for error returns.
func (s *Store) RangeQuery(attrs []Attr, lo, hi []float64) ([]uint64, QueryReport) {
	r, err := s.Do(context.Background(), NewRangeQuery(attrs, lo, hi))
	if err != nil {
		panic(err.Error())
	}
	return r.IDs, r.Report
}

// TopKQuery finds the k files whose attributes are closest to the given
// point (§3.3.2). It is a compatibility wrapper over Do and keeps the
// legacy contract of panicking on invalid dimensions or k; use Do for
// error returns.
func (s *Store) TopKQuery(attrs []Attr, point []float64, k int) ([]uint64, QueryReport) {
	r, err := s.Do(context.Background(), NewTopKQuery(attrs, point, k))
	if err != nil {
		panic(err.Error())
	}
	return r.IDs, r.Report
}
