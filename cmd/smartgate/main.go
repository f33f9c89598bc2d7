// Command smartgate is the scale-out gateway daemon: it federates a
// static membership of smartstored backends behind the exact same
// HTTP/JSON wire API a single smartstored serves, so smartctl,
// smarteval and the typed client point at it unchanged. Queries fan
// out concurrently and merge exactly (internal/gateway); inserts route
// by semantic placement; a down backend degrades the answer to
// Partial instead of failing it.
//
// Usage:
//
//	smartgate -addr :7080 -backends 127.0.0.1:7081,127.0.0.1:7082
//	smartgate -addr :7080 -backends a:7070,b:7070,c:7070 -health-every 1s
//
// Every backend must be reachable at startup (placement bootstrap,
// bounded by -bootstrap-wait); afterwards the health loop tolerates
// members coming and going. The federation is only exact when the
// backends were built against a shared normalizer and hold disjoint
// id spaces — see DESIGN.md §9.
//
// With -followers (positional, parallel to -backends; leave a slot
// empty for a member without one) a down member whose follower reports
// itself caught up is failed over: the gateway promotes the follower
// and repoints the member at it, so fan-outs answer complete instead
// of partial. Fail-back is an operator action — see DESIGN.md §11.
//
//	smartgate -addr :7080 -backends a:7070,b:7070 -followers a2:7070,b2:7070
//
// Probe it exactly like a smartstored:
//
//	curl -s localhost:7080/v1/stats
//	curl -s -X POST localhost:7080/v1/query \
//	  -d '{"kind":"topk","attrs":["mtime","read_bytes"],"point":[40000,3e7],"k":10}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":7080", "listen address")
	backends := flag.String("backends", "", "comma-separated smartstored addresses (required)")
	healthEvery := flag.Duration("health-every", 2*time.Second, "backend health-check cadence")
	timeout := flag.Duration("timeout", 10*time.Second, "per-attempt backend request timeout")
	retries := flag.Int("retries", 2, "extra attempts for idempotent backend reads after a transient failure")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "initial retry delay, doubling per retry")
	workers := flag.Int("workers", 0, "max concurrently executing requests (0 = 4×GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker (0 = 8×workers)")
	metricsOn := flag.Bool("metrics", true, "expose Prometheus metrics at /v1/metrics")
	bootstrapWait := flag.Duration("bootstrap-wait", 15*time.Second, "how long to retry unreachable backends at startup")
	followers := flag.String("followers", "", "comma-separated follower addresses, positional with -backends (empty slot = member has no follower)")
	flag.Parse()

	if *backends == "" {
		log.Fatal("smartgate: -backends is required (comma-separated smartstored addresses)")
	}
	var members []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			members = append(members, b)
		}
	}
	// Follower slots are positional — unlike -backends, empty entries
	// are kept so "a2,,c2" leaves the middle member without a follower.
	var followerAddrs []string
	if *followers != "" {
		for _, f := range strings.Split(*followers, ",") {
			followerAddrs = append(followerAddrs, strings.TrimSpace(f))
		}
	}

	g, err := gateway.New(gateway.Options{
		Backends:       members,
		Followers:      followerAddrs,
		HealthEvery:    *healthEvery,
		Timeout:        *timeout,
		Retries:        *retries,
		RetryBackoff:   *retryBackoff,
		Workers:        *workers,
		MaxQueue:       *queue,
		DisableMetrics: !*metricsOn,
		BootstrapWait:  *bootstrapWait,
	})
	if err != nil {
		log.Fatalf("smartgate: %v", err)
	}
	log.Printf("smartgate: federating %d backends: %s", len(members), strings.Join(members, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.Run(ctx) // health loop

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("smartgate: serving on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("smartgate: %v", err)
		}
	case <-ctx.Done():
		log.Print("smartgate: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("smartgate: shutdown: %v", err)
		}
	}
}
