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

// QueryMode selects the complex-query execution path of §3.3–3.4, as a
// store's default (Config.Mode) or for one query (QueryOptions.Mode).
type QueryMode int

const (
	// ModeDefault, on a query, runs on the store's Mode; as Config.Mode
	// it means ModeOffline.
	ModeDefault QueryMode = iota
	// ModeOffline routes a query directly to its most-correlated
	// semantic group using locally replicated index-unit vectors (§3.4).
	// Fast and message-frugal; recall bounded by grouping quality.
	ModeOffline
	// ModeOnline multicasts the query to every first-level group host
	// (§3.3). Exact; more messages.
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
// asks for the store-default mode, no limit, ids only.
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

// Result is the answer to one Query: the engine's own answer. Its
// Shards field lists the engine shards the query fanned out to — a set
// that depends only on the query and the frozen placement centroids, so
// a cache keyed on those shards' epochs can never serve a stale answer.
type Result = engine.Answer

// Do executes one query. It is the single entry point every query path
// shares — the wire layer's /v1/query endpoint calls it directly.
//
// Do validates before touching the store and returns errors wrapping
// ErrInvalidQuery. The query runs on the path ResolveMode picks for
// its Options.Mode, and fans out to the relevant engine shards in
// parallel: range queries skip shards whose root MBR misses the query
// rectangle, top-k answers merge by true normalized distance, and the
// report aggregates max-latency / summed-messages across shards. The
// context is honoured between routing phases: before admission, while
// each shard waits for its deployment's query slot, and again between
// query execution and record projection; a cancelled context returns
// ctx.Err().
func (s *Store) Do(ctx context.Context, q Query) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	opts := engine.QueryOpts{
		Online:         s.ResolveMode(q.Options.Mode) == ModeOnline,
		Limit:          q.Options.Limit,
		IncludeRecords: q.Options.IncludeRecords,
		IncludeDists:   q.Options.IncludeDists,
	}

	switch q.Kind {
	case KindPoint:
		return s.eng.Point(ctx, query.Point{Filename: q.Path}, opts)
	case KindRange:
		rq, err := query.MakeRange(q.Attrs, q.Lo, q.Hi)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
		}
		return s.eng.Range(ctx, rq, opts)
	}
	tq, err := query.MakeTopK(q.Attrs, q.Point, q.K)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return s.eng.TopK(ctx, tq, opts)
}

// ResolveMode returns the path a query with Options.Mode m runs on:
// m itself, or the store's Mode when m is ModeDefault. It is the one
// place the choice is made; Do executes on it and a result cache keys
// on it, so "default" and an explicit mode equal to it are one query.
func (s *Store) ResolveMode(m QueryMode) QueryMode {
	if m == ModeDefault {
		return s.Mode()
	}
	return m
}
