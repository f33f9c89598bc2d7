// Package client is the typed Go client of the smartstored HTTP
// metadata service. It speaks the wire format of internal/wire and
// mirrors the root library API: Query takes a smartstore.Query value —
// kind, dimensions, per-query options — and round-trips it through the
// unified POST /v1/query endpoint, with context cancellation aborting
// the HTTP exchange.
//
// Queries always travel in the length-prefixed binary codec, both
// ways: the request body is binary and Accept asks for a binary
// answer. A 200 answer in any other content type is an error, never a
// guess. Error replies, mutations and stats stay JSON.
//
// Idempotent reads — queries, stats, metrics, health — can retry
// transient failures (transport errors, 502/503/504) with bounded
// exponential backoff and a per-attempt timeout (Options); mutations
// are never retried, since a timed-out insert may have landed and a
// blind replay would surface duplicate-id errors. The gateway
// (internal/gateway) leans on this so a backend hiccup doesn't surface
// as a federated query failure.
//
// A Client is safe for concurrent use by multiple goroutines.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	smartstore "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// Options parameterizes a Client beyond its address. The zero value
// reproduces the legacy behaviour: one attempt, 60s overall timeout.
type Options struct {
	// Timeout bounds each attempt (0 → 60s).
	Timeout time.Duration
	// Retries is how many additional attempts an idempotent read may
	// make after a retryable failure (0 = fail on the first error).
	// Mutations never retry regardless.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// subsequent retry (0 → 25ms). A cancelled context aborts the wait.
	RetryBackoff time.Duration
	// OnRetry, when set, observes every retry about to be attempted —
	// the hook a gateway counts client_retries_total with.
	OnRetry func(path string, attempt int, err error)
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// StatusError is a non-200 reply, carrying the HTTP status code and
// the server's error message. Callers distinguish server-side pressure
// (503) from client errors (400) with errors.As.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

// Client talks to one smartstored (or smartgate) instance.
type Client struct {
	base  string
	hc    *http.Client
	opts  Options
	trace bool
}

// New builds a client for a daemon at addr — either a bare "host:port"
// or a full "http://host:port" base URL — with default options.
func New(addr string) *Client {
	return NewWithOptions(addr, Options{})
}

// NewWithOptions builds a client with explicit timeout/retry options.
func NewWithOptions(addr string, opts Options) *Client {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// A dedicated transport with a deep idle pool: benchmark and
	// service workloads run dozens of concurrent closed-loop callers
	// through one Client, and the default MaxIdleConnsPerHost of 2
	// would churn TCP connections, polluting measured tail latency
	// with handshake cost.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	return &Client{
		base: base,
		// The per-attempt bound lives in the request context, not
		// http.Client.Timeout, so each retry gets a fresh window.
		hc:   &http.Client{Transport: tr},
		opts: opts.withDefaults(),
	}
}

// WithTrace returns a copy of the client that sets the
// X-Smartstore-Trace header on every query, asking the server for its
// per-phase timing breakdown. The copy shares the underlying transport.
func (c *Client) WithTrace() *Client {
	cc := *c
	cc.trace = true
	return &cc
}

// retryable reports whether an attempt's failure may be retried on an
// idempotent request: transport-level errors (connection refused/reset,
// per-attempt timeout) and upstream-pressure statuses. Context
// cancellation from the caller is final.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusBadGateway ||
			se.Code == http.StatusServiceUnavailable ||
			se.Code == http.StatusGatewayTimeout
	}
	return true
}

// roundTrip runs one request with bounded retries when idempotent. The
// attempt function must build a fresh request each call (bodies are
// consumed by failed attempts).
func (c *Client) roundTrip(ctx context.Context, path string, idempotent bool, attempt func(ctx context.Context) error) error {
	retries := 0
	if idempotent {
		retries = c.opts.Retries
	}
	backoff := c.opts.RetryBackoff
	for try := 0; ; try++ {
		actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
		err := attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		if try >= retries || !retryable(ctx, err) {
			return err
		}
		if c.opts.OnRetry != nil {
			c.opts.OnRetry(path, try+1, err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// postCtx round-trips one JSON POST under ctx; out may be nil.
func (c *Client) postCtx(ctx context.Context, path string, in, out any, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.roundTrip(ctx, path, idempotent, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		req.Header.Set("Content-Type", "application/json")
		if c.trace {
			req.Header.Set(server.TraceHeader, "1")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		return c.finish(path, resp, out)
	})
}

// get round-trips one GET (idempotent by definition).
func (c *Client) get(path string, out any) error {
	return c.roundTrip(context.Background(), path, true, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		return c.finish(path, resp, out)
	})
}

// statusError turns a non-200 reply into a StatusError carrying the
// message of its JSON error body.
func statusError(path string, resp *http.Response) error {
	se := &StatusError{Code: resp.StatusCode}
	var we server.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&we) == nil && we.Error != "" {
		se.Msg = we.Error
	}
	return fmt.Errorf("client: %s: %w", path, se)
}

func (c *Client) finish(path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(path, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// Query executes one composable query through the unified POST
// /v1/query endpoint. Per-query options (mode override, limit, record
// projection) travel with the query; cancelling ctx aborts the
// round trip. Queries are idempotent and retry per Options.
//
// The request and a 200 answer are binary; an answer in another
// content type fails with an error naming it. Non-200 replies are JSON.
func (c *Client) Query(ctx context.Context, q smartstore.Query) (out *server.QueryResponse, err error) {
	const path = "/v1/query"
	body, err := wire.EncodeRequest(&server.QueryRequest{WireQuery: server.QueryToWire(q)})
	if err != nil {
		return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	err = c.roundTrip(ctx, path, true, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		if c.trace {
			req.Header.Set(server.TraceHeader, "1")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(path, resp)
		}
		if ct := resp.Header.Get("Content-Type"); !wire.IsBinary(ct) {
			return fmt.Errorf("client: %s answered in %q, not %s", path, ct, wire.ContentType)
		}
		if out, err = wire.DecodeResponse(resp.Body); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Insert inserts a batch of files in one request. Files with a zero ID
// get one allocated by the server; the response lists the batch's ids
// in input order. Never retried: a timed-out insert may have landed.
func (c *Client) Insert(files []*smartstore.File) (*server.InsertResponse, error) {
	recs := make([]server.FileRecord, len(files))
	for i, f := range files {
		recs[i] = server.RecordFromFile(f)
	}
	return c.InsertRecords(context.Background(), recs)
}

// InsertRecords inserts wire records directly — the form a gateway
// forwards without materializing metadata.File values.
func (c *Client) InsertRecords(ctx context.Context, recs []server.FileRecord) (*server.InsertResponse, error) {
	var out server.InsertResponse
	if err := c.postCtx(ctx, "/v1/insert", server.InsertRequest{Files: recs}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete removes a file by id.
func (c *Client) Delete(id uint64) (*server.MutateResponse, error) {
	return c.DeleteCtx(context.Background(), id)
}

// DeleteCtx removes a file by id under ctx.
func (c *Client) DeleteCtx(ctx context.Context, id uint64) (*server.MutateResponse, error) {
	var out server.MutateResponse
	if err := c.postCtx(ctx, "/v1/delete", server.DeleteRequest{ID: id}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Modify updates an existing file's attributes, sending the full
// attribute vector.
func (c *Client) Modify(f *smartstore.File) (*server.MutateResponse, error) {
	return c.ModifyRecord(context.Background(), server.RecordFromFile(f))
}

// ModifyRecord forwards a modify in wire form, preserving the
// request's partial-attribute merge semantics — what a gateway must
// use, since materializing a File would zero unnamed attributes.
func (c *Client) ModifyRecord(ctx context.Context, rec server.FileRecord) (*server.MutateResponse, error) {
	var out server.MutateResponse
	if err := c.postCtx(ctx, "/v1/modify", server.ModifyRequest{File: rec}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Flush sends the legacy POST /v1/flush. Acknowledged writes already
// answer queries, so it changes nothing; the reply carries the current
// epoch.
func (c *Client) Flush() (*server.FlushResponse, error) {
	return c.FlushCtx(context.Background())
}

// FlushCtx is Flush under ctx.
func (c *Client) FlushCtx(ctx context.Context) (*server.FlushResponse, error) {
	var out server.FlushResponse
	if err := c.postCtx(ctx, "/v1/flush", struct{}{}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats reports store structure and serving-layer counters.
func (c *Client) Stats() (*server.StatsResponse, error) {
	var out server.StatsResponse
	if err := c.get("/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplStatus reports the daemon's replication posture: whether it is
// read-only, following a leader, caught up, or promoted. It answers on
// every member — leaders report a non-following, writable store.
func (c *Client) ReplStatus() (*server.ReplStatusWire, error) {
	var out server.ReplStatusWire
	if err := c.get("/v1/repl/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote asks a follower to stop following, apply everything it has
// fetched, and start accepting writes. Not idempotent at the transport
// level (no retry): the caller decides whether to re-issue, and the
// endpoint itself is idempotent server-side.
func (c *Client) Promote(ctx context.Context) (*server.ReplStatusWire, error) {
	var out server.ReplStatusWire
	if err := c.postCtx(ctx, "/v1/repl/promote", struct{}{}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus text exposition from
// /v1/metrics. Callers that want structured values feed the result to
// obs.ParsePrometheus.
func (c *Client) Metrics() (string, error) {
	var text string
	err := c.roundTrip(context.Background(), "/v1/metrics", true, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/v1/metrics", nil)
		if err != nil {
			return fmt.Errorf("client: /v1/metrics: %w", err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: /v1/metrics: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("client: /v1/metrics: %w", &StatusError{Code: resp.StatusCode})
		}
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			return fmt.Errorf("client: reading /v1/metrics: %w", err)
		}
		text = b.String()
		return nil
	})
	return text, err
}

// Healthy reports whether the daemon answers its health check. Health
// probes never retry — the health loop wants the instantaneous truth,
// and its own cadence provides the retrying.
func (c *Client) Healthy() bool {
	actx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	var out map[string]bool
	return c.finish("/healthz", resp, &out) == nil && out["ok"]
}
