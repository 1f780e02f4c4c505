// Command epolrouter runs the stateless front end of the sharded serving
// fabric: it accepts worker registrations on a membership port, routes
// /v1/energy, /v1/sweep and /v1/stream requests across the registered
// workers by molecule content hash on a consistent-hash ring, and fails
// over to replica shards when a worker dies.
//
// Usage:
//
//	epolrouter -addr :8700 -membership :8701
//	epolserve -addr :8686 -join 127.0.0.1:8701     # then add workers
//	epolrouter -replicas 3                         # wider replica set
//
// Endpoints: POST /v1/energy, POST /v1/sweep, POST /v1/stream (+ the
// shard-sticky /v1/stream/{id}/frame and /close), GET /stats, GET
// /healthz and, with -observe, GET /metrics. Routers hold no evaluation
// state — run several behind any TCP load balancer; each keeps its own
// membership view. See DESIGN.md §14 for the architecture and README
// "Sharded serving" for a walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"octgb/internal/fabric"
	"octgb/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "epolrouter:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, serves until
// SIGTERM/SIGINT and returns. When ready is non-nil the bound HTTP and
// membership addresses are sent on it once the listeners are up.
func run(args []string, out io.Writer, ready chan<- [2]string) error {
	fs := flag.NewFlagSet("epolrouter", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", ":8700", "HTTP listen address")
		membership = fs.String("membership", ":8701", "worker registration listen address")
		replicas   = fs.Int("replicas", fabric.DefaultReplicas, "replication factor R: failover + hot-key replica set size")
		vnodes     = fs.Int("vnodes", fabric.DefaultVNodes, "virtual nodes per worker on the ring")
		timeout    = fs.Duration("timeout", fabric.DefaultMembershipTimeout, "heartbeat timeout: a worker silent this long is failed")
		observe    = fs.Bool("observe", true, "expose /metrics and record per-shard latency histograms")
		verbose    = fs.Bool("v", false, "log membership and failover events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fabric.RouterConfig{
		Addr:           *addr,
		MembershipAddr: *membership,
		Replicas:       *replicas,
		VNodes:         *vnodes,
		Timeout:        *timeout,
	}
	if *observe {
		cfg.Observe = obs.New()
	}
	if *verbose {
		cfg.Logger = log.New(out, "", log.LstdFlags|log.Lmicroseconds)
	}

	// Register the handler before binding so a signal racing startup is
	// never lost.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	rt := fabric.NewRouter(cfg)
	if err := rt.Start(); err != nil {
		return err
	}
	fmt.Fprintf(out, "epolrouter: routing on %s, membership on %s (R=%d, vnodes=%d)\n",
		rt.Addr(), rt.MembershipAddr(), *replicas, *vnodes)
	if ready != nil {
		ready <- [2]string{rt.Addr(), rt.MembershipAddr()}
	}

	sig := <-sigCh
	fmt.Fprintf(out, "epolrouter: %v — shutting down\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "epolrouter: stopped")
	return nil
}
