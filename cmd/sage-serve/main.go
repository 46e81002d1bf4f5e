// sage-serve is the persistent SAGE daemon: it keeps the model -> mapping ->
// gluegen -> simulate pipeline resident and answers HTTP requests, so a
// design-space exploration front end pays process start-up and table
// generation once instead of per run. See internal/serve for the API and
// DESIGN.md §9 for the architecture (admission control, content-addressed
// response cache, deadline cancellation).
//
// Usage:
//
//	sage-serve -addr :8080
//	sage-serve -addr 127.0.0.1:0 -workers 4 -queue 32 -rate 50 -deadline 10s
//
// Endpoints:
//
//	POST /v1/run     {"app":"fft2d","n":256,"platform":"CSPI","nodes":8,...}
//	GET  /v1/health  liveness probe
//	GET  /v1/stats   queue depth, cache hit rate, worker occupancy
//
// SIGINT/SIGTERM shut the daemon down cleanly: in-flight requests finish or
// hit their deadline, the worker fleet drains, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, serve failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "simulation worker fleet size (0 = GOMAXPROCS); results are identical at any setting")
	queue := fs.Int("queue", 64, "queued requests beyond the running ones before shedding with 429")
	rate := fs.Float64("rate", 0, "sustained admission rate in requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "token-bucket burst capacity (0 = derived from -rate)")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request wall-clock budget; exceeding it cancels the run with 504 (0 = none)")
	cacheEntries := fs.Int("cache", 1024, "response cache entries (negative disables caching)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if err := run(*addr, serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		RatePerSec:   *rate,
		Burst:        *burst,
		Deadline:     *deadline,
		CacheEntries: *cacheEntries,
	}, stderr); err != nil {
		fmt.Fprintln(stderr, "sage-serve:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

func run(addr string, cfg serve.Config, stderr io.Writer) error {
	if addr == "" {
		return cli.Usagef("-addr is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := serve.New(cfg)
	// Timeouts bound what a slow or stalled client can hold: the header and
	// body reads (run time is bounded separately by -deadline) and an idle
	// keep-alive connection.
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The listening line goes to stderr so scripts (and CI) can wait on it;
	// it reports the resolved address, which matters with port 0.
	fmt.Fprintf(stderr, "sage-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		s.Shutdown()
		return err
	case sig := <-sigc:
		fmt.Fprintf(stderr, "sage-serve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			s.Shutdown()
			return err
		}
		s.Shutdown()
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(stderr, "sage-serve: clean shutdown")
		return nil
	}
}
