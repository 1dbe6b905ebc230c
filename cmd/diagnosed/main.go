// Command diagnosed serves the paper's diagnosis algorithm over
// HTTP/JSON — the network edge of the engine stack. It holds a
// bounded registry of bound engines keyed by topology spec, coalesces
// concurrent /v1/diagnose requests into grouped Engine.DiagnoseBatch
// calls (so shared certification, shared final prefixes and the
// result cache engage automatically under overlapping traffic),
// streams campaign sweeps over /v1/campaign, and exports the stack's
// counters at /metrics in Prometheus text. See docs/service.md for
// the API and the coalescing soundness argument.
//
// Usage:
//
//	diagnosed [-addr 127.0.0.1:7133] [-registry 8] [-window 2ms]
//	          [-max-batch 64] [-workers N] [-cache 1024]
//	          [-preload q:20,star:7]
//
// Diagnose one hypothesis:
//
//	curl -X POST http://127.0.0.1:7133/v1/diagnose \
//	     -d '{"topology":"q:10","faults":[3,77],"behavior":"mimic"}'
//
// Stream a campaign:
//
//	curl -X POST http://127.0.0.1:7133/v1/campaign \
//	     -d '{"topology":"q:10","min_faults":0,"max_faults":12,"trials":200}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"comparisondiag/internal/serve"
)

// HTTP timeouts of the listener: a client that trickles its headers
// or body, or parks an idle keep-alive connection, cannot hold a
// connection open indefinitely. There is deliberately no WriteTimeout:
// /v1/campaign streams one line per sweep point for as long as the
// sweep runs — minutes for a large one — and a write deadline would
// cut the stream off mid-campaign.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7133", "listen address (host:port; port 0 picks a free port)")
	registryCap := flag.Int("registry", 8, "bound-engine LRU capacity")
	window := flag.Duration("window", 2*time.Millisecond, "coalescing window (0 disables coalescing)")
	maxBatch := flag.Int("max-batch", 64, "flush a window early at this many distinct pending requests")
	workers := flag.Int("workers", 0, "worker-pool size per engine (0 = GOMAXPROCS)")
	cacheCap := flag.Int("cache", 1024, "per-engine result-cache capacity (0 disables caching)")
	preload := flag.String("preload", "", "comma-separated specs to bind at startup; hypercubes (q:<n>) bind from their XOR descriptor, with or without the implicit: prefix, and are refused from q:27 up (n·2^n arcs beyond int32); fq, eq and aq serve their generator set and write no CSR; other families build their CSR")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "diagnosed: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments: %v", flag.Args())
	}
	if *registryCap < 1 {
		fail("-registry must be ≥ 1")
	}
	if *window < 0 {
		fail("-window must be ≥ 0")
	}
	if *maxBatch < 1 {
		fail("-max-batch must be ≥ 1")
	}
	if *workers < 0 {
		fail("-workers must be ≥ 0")
	}
	if *cacheCap < 0 {
		fail("-cache must be ≥ 0")
	}

	cfg := serve.Config{
		RegistryCap: *registryCap,
		Window:      *window,
		NoCoalesce:  *window == 0,
		MaxBatch:    *maxBatch,
		Workers:     *workers,
		CacheCap:    *cacheCap,
	}
	if *cacheCap == 0 {
		cfg.CacheCap = -1 // serve.Config: negative disables, 0 means default
	}
	srv := serve.New(cfg)
	for _, spec := range strings.Split(*preload, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if err := srv.Preload(spec); err != nil {
			fmt.Fprintf(os.Stderr, "diagnosed: preload %s: %v\n", spec, err)
			os.Exit(1)
		}
		fmt.Printf("preloaded %s\n", spec)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diagnosed: listen: %v\n", err)
		os.Exit(1)
	}
	hs := newHTTPServer(srv)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("diagnosed: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	fmt.Printf("diagnosed listening on http://%s (registry %d, window %v, max-batch %d, cache %d)\n",
		ln.Addr(), *registryCap, *window, *maxBatch, *cacheCap)
	err = hs.Serve(ln)
	// Serve returns ErrServerClosed on Shutdown; drain the coalescers
	// and worker pools either way.
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "diagnosed: serve: %v\n", err)
		os.Exit(1)
	}
}
