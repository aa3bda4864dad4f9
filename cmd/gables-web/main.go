// Command gables-web serves the interactive Gables visualization — the
// repository's counterpart of the interactive tool published on the
// paper's home page. It renders the multi-roofline plot of a two-IP SoC
// at "/" and of a three-IP SoC at "/three" live as hardware and usecase
// parameters change. Identical form submissions are memoized in each
// server's page cache; /stats reports the cache and tracing counters as
// JSON.
//
// Both listeners run as configured http.Servers (header/read/idle
// timeouts, so a slow-loris client cannot pin connections open forever)
// and shut down gracefully on SIGINT/SIGTERM: in-flight renders finish,
// then the process exits.
//
// -pprof exposes net/http/pprof on a separate localhost-only listener for
// profiling the evaluation and render path; it is off by default so the
// public listener never serves profiling data.
//
// The /eval JSON endpoint answers SoC+work queries through the unified
// evaluator registry; -backend names the backend it uses when a request
// does not name one (?backend=analytic|sim|auto|surrogate), and is
// checked against the registry before the listeners come up.
// POST /eval/batch answers arrays of the same question. Both run behind
// the admission limiter: -max-inflight bounds concurrent evaluations,
// -queue bounds each class's wait queue, and requests beyond both are
// shed with 429 (flags override GABLES_MAX_INFLIGHT / GABLES_QUEUE_DEPTH).
//
// Usage:
//
//	gables-web [-addr :8337] [-backend sim] [-pprof 6060]
//	           [-max-inflight 64] [-queue 128]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/web"
)

// Server hardening and shutdown knobs. The read timeouts bound how long a
// client may take to deliver a request; idle bounds keep-alive parking;
// the shutdown grace bounds how long in-flight renders may run after a
// signal before the listener is torn down anyway.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 120 * time.Second
	shutdownGrace     = 5 * time.Second
)

func main() {
	addr := flag.String("addr", ":8337", "listen address")
	pprofPort := flag.Int("pprof", 0, "serve net/http/pprof on localhost:PORT (0 = disabled)")
	backend := flag.String("backend", "sim", "/eval backend for requests that name none: "+
		strings.Join(eval.Names(), "|")+" (requests override with ?backend=)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent evaluations (0 = GABLES_MAX_INFLIGHT or default)")
	queueDepth := flag.Int("queue", 0, "admission queue depth per class (0 = GABLES_QUEUE_DEPTH or default)")
	flag.Parse()

	if _, err := eval.Resolve(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "gables-web:", err)
		os.Exit(1)
	}
	opts := web.EnvOptions()
	if *maxInFlight > 0 {
		opts.MaxInFlight = *maxInFlight
	}
	if *queueDepth > 0 {
		opts.QueueDepth = *queueDepth
	}
	opts.Backend = *backend

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *pprofPort, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gables-web:", err)
		os.Exit(1)
	}
}

// newServer returns an http.Server with the hardening timeouts applied —
// both listeners go through it so neither regresses to the zero-valued
// (timeout-free) configuration.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run serves until ctx is canceled (the signal path) or a listener fails,
// then drains in-flight requests for up to shutdownGrace. It is main minus
// the process concerns, so tests can drive the full lifecycle.
func run(ctx context.Context, addr string, pprofPort int, opts web.Options, out io.Writer) error {
	srv := newServer(addr, web.NewHandler(opts))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gables-web: serving the interactive model on http://%s/ (cache stats at /stats)\n", displayAddr(ln))

	errc := make(chan error, 2)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	var psrv *http.Server
	if pprofPort != 0 {
		paddr := fmt.Sprintf("localhost:%d", pprofPort)
		psrv = newServer(paddr, pprofMux())
		pln, err := net.Listen("tcp", paddr)
		if err != nil {
			shutdown(srv)
			<-errc
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(out, "gables-web: pprof on http://%s/debug/pprof/\n", paddr)
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("pprof: %w", err)
				return
			}
			errc <- nil
		}()
	}

	// Wait for a signal or the first listener failure, then drain both
	// servers gracefully.
	var first error
	received := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "gables-web: shutting down")
	case first = <-errc:
		received = 1
	}
	shutdown(srv)
	if psrv != nil {
		shutdown(psrv)
	}
	// Collect the remaining serve goroutines' exits.
	total := 1
	if psrv != nil {
		total++
	}
	for i := received; i < total; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shutdown drains one server for up to shutdownGrace, then closes it hard.
func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}

// displayAddr renders the listener's bound address for the startup line,
// substituting localhost when bound to the wildcard address.
func displayAddr(ln net.Listener) string {
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return ln.Addr().String()
	}
	if addr.IP.IsUnspecified() {
		return fmt.Sprintf("localhost:%d", addr.Port)
	}
	return addr.String()
}

// pprofMux registers the profiling endpoints on their own mux (the main
// handler uses a private ServeMux, so the pprof default-mux registrations
// never leak into it); run binds it to loopback only.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
