// Command rooflined serves the energy-roofline model and the
// measurement-campaign engine over HTTP/JSON — the repeated-what-if
// form in which roofline models are actually consumed.
//
// Because the engine is deterministic (fixed config → byte-identical
// output at any worker count), responses are content-addressed: an LRU
// cache serves repeated queries without re-running the engine, and
// concurrent identical campaign requests coalesce into a single
// execution that shares one worker budget machine-wide. See
// docs/SERVER.md for the API and the cache/coalescing semantics.
//
// Usage:
//
//	rooflined [-addr :8080] [-workers N] [-cache-entries N]
//	          [-cache-bytes N] [-timeout D] [-drain D]
//	          [-debug] [-trace out.json]
//
// -debug turns on the observability surface: per-request span tracing,
// GET /debug/trace (Chrome trace_event JSON of the span ring buffer),
// the net/http/pprof handlers under /debug/pprof/, and span_* latency
// histograms on GET /metrics. -trace implies -debug and additionally
// dumps the span buffer to a file at shutdown. See
// docs/OBSERVABILITY.md.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight campaigns for up to -drain, then exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "global engine worker budget shared across requests (0 = one per CPU)")
		cacheEntries = flag.Int("cache-entries", 0, "result cache entry bound (0 = default)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "result cache byte bound (0 = default)")
		timeout      = flag.Duration("timeout", 0, "per-request engine execution timeout (0 = default)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		debug        = flag.Bool("debug", false, "enable /debug/trace, /debug/pprof/, and span tracing")
		traceOut     = flag.String("trace", "", "write the span buffer as Chrome trace JSON to this file at shutdown (implies -debug)")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		RequestTimeout: *timeout,
		Debug:          *debug || *traceOut != "",
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rooflined:", err)
		os.Exit(1)
	}
	// The chosen address is announced on stdout so callers (and the e2e
	// test) can use port 0 and discover the bound port.
	fmt.Printf("rooflined listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rooflined:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight campaigns
	// (handlers block until their engine runs finish), then abort
	// anything still running past the drain budget.
	fmt.Println("rooflined: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "rooflined: shutdown:", err)
	}
	srv.Close()
	if *traceOut != "" {
		if err := writeTrace(srv, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "rooflined: trace:", err)
		}
	}
	fmt.Println("rooflined: shutdown complete")
}

// writeTrace dumps the server's span ring buffer as Chrome trace JSON.
func writeTrace(srv *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.Tracer().WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tr := srv.Tracer()
	fmt.Printf("rooflined: wrote %d spans (%d dropped) to %s\n", tr.Len(), tr.Dropped(), path)
	return nil
}
