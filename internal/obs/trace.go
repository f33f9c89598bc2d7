package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// QueryTrace accumulates the per-phase timing breakdown of one served
// query: the serving layer records the coarse phases (admission wait →
// decode → cache lookup → execute → merge → encode) and the engine's
// fan-out records one entry per shard it visited or pruned. A trace is
// requested with the X-Smartstore-Trace header (returned inline in the
// response) or implicitly collected when the daemon's -slow-query
// threshold is set (logged when exceeded). The carrier travels by
// context so the engine needs no signature change; a nil *QueryTrace is
// valid everywhere and records nothing.
type QueryTrace struct {
	// Start is stamped by WithTrace; the serving layer measures the
	// request's total wall time against it.
	Start time.Time

	mu     sync.Mutex
	phases []TracePhase
	shards []TraceShard
}

// TracePhase is one named serving phase and its wall time.
type TracePhase struct {
	Name string        // phase name (admission_wait, decode, ...)
	Dur  time.Duration // phase wall time
}

// TraceShard is one shard's contribution to the execute phase.
type TraceShard struct {
	Shard  int           // shard index
	Dur    time.Duration // shard execution wall time
	Pruned bool          // rejected by root MBR/Bloom, not executed
}

// AddPhase appends a phase timing. Safe on a nil trace.
func (t *QueryTrace) AddPhase(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, TracePhase{Name: name, Dur: d})
	t.mu.Unlock()
}

// AddShard appends one shard's execute timing. Safe on a nil trace and
// called concurrently from the fan-out goroutines.
func (t *QueryTrace) AddShard(shard int, d time.Duration, pruned bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shards = append(t.shards, TraceShard{Shard: shard, Dur: d, Pruned: pruned})
	t.mu.Unlock()
}

// Phases returns the recorded phases in recording order.
func (t *QueryTrace) Phases() []TracePhase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TracePhase, len(t.phases))
	copy(out, t.phases)
	return out
}

// Shards returns the recorded per-shard timings (fan-out order is
// nondeterministic).
func (t *QueryTrace) Shards() []TraceShard {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceShard, len(t.shards))
	copy(out, t.shards)
	return out
}

// String renders the breakdown in the compact one-line form the
// -slow-query log uses: "admission_wait=12µs execute=3.4ms
// [shard0=3.1ms shard2=pruned] ...".
func (t *QueryTrace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for i, p := range t.Phases() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", p.Name, p.Dur)
		if p.Name == "execute" {
			if shards := t.Shards(); len(shards) > 0 {
				b.WriteString(" [")
				for j, s := range shards {
					if j > 0 {
						b.WriteByte(' ')
					}
					if s.Pruned {
						fmt.Fprintf(&b, "shard%d=pruned", s.Shard)
					} else {
						fmt.Fprintf(&b, "shard%d=%s", s.Shard, s.Dur)
					}
				}
				b.WriteByte(']')
			}
		}
	}
	return b.String()
}

type traceKey struct{}

// WithTrace returns a context carrying a fresh QueryTrace.
func WithTrace(ctx context.Context) (context.Context, *QueryTrace) {
	t := &QueryTrace{Start: time.Now()}
	return context.WithValue(ctx, traceKey{}, t), t
}

// TraceFrom extracts the context's QueryTrace, or nil when the request
// is untraced.
func TraceFrom(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceKey{}).(*QueryTrace)
	return t
}

// WithoutTrace returns a context whose TraceFrom is nil whatever ctx
// carried — for work run on behalf of a traced request whose timings
// the trace has no place for.
func WithoutTrace(ctx context.Context) context.Context {
	return context.WithValue(ctx, traceKey{}, (*QueryTrace)(nil))
}
