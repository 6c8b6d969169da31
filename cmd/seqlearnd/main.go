// Command seqlearnd serves the sequential-learning stack over HTTP: learn
// and ATPG requests against posted .bench netlists, all
// resolving their implication snapshots through a content-addressed cache
// (in-memory LRU + singleflight + optional on-disk persistence), so any
// number of clients amortize one learning run per circuit.
//
// Usage:
//
//	seqlearnd                                  # serve on :8344, memory-only cache
//	seqlearnd -addr 127.0.0.1:0 -addr-file a   # random port, written (atomically) to file a
//	seqlearnd -cache-dir /var/cache/seqlearn   # persist learned snapshots
//	seqlearnd -queue 32 -request-timeout 5m    # shed beyond 32 waiters, bound each request
//	seqlearnd -debug-addr 127.0.0.1:8345       # pprof + /metrics on a side listener
//	seqlearnd -dump-circuit figure2            # print a built-in netlist and exit
//
// Endpoints (see internal/server and README "Running the service"). The
// compute endpoints take the circuit as the POST body and every option as
// a query parameter; an unknown parameter answers 400.
//
//	POST /v1/learn?[name=|max_frames=|single_only=1|skip_comb=1|no_early_stop=1|workers=|timeout=|debug=trace]
//	POST /v1/atpg?[every /v1/learn key|mode=|backtracks=|max_faults=|max_window=|atpg_workers=|compact=1|include_tests=1|reuse=]
//	GET  /healthz
//	GET  /v1/stats
//	GET  /metrics
//
// name= labels the posted circuit. timeout= sets a per-request deadline,
// capped by -request-timeout. debug=trace echoes the request's span tree
// in the response. On /v1/atpg, mode= is nolearn, forbidden (default) or
// known, and reuse= is "auto" or a tests_fingerprint to seed from; the
// random fill of unassigned PI values always uses seed 0x7e57, as seqatpg
// does. Size parameters are bounded when the query is decoded, and an
// out-of-range value answers 400: max_window 0..64 (0 = 8) and max_frames
// 0..1000 (0 = the learner's default).
//
// Every response carries an X-Request-Id (generated, or propagated from
// the request). Requests slower than -slow-request log at WARN with the
// span breakdown attached.
//
// Fleet operation (see README "Scaling out seqlearnd"): instances sharing
// one -cache-dir resolve each other's learned snapshots and test sets from
// disk, so a fleet pays for one learning run per circuit. Clients that
// already know a circuit's fingerprint may send the X-Circuit-Fingerprint
// header with an empty body to skip the netlist upload; a daemon that
// doesn't hold the artifact answers 428 and the client re-sends the body
// (seqlearn.Client does this transparently).
//
// Overload sheds with 429 + Retry-After once the pool and queue are full;
// expired deadlines answer 504 and never cache; SIGINT/SIGTERM flips
// /healthz to 503 "draining" and drains in-flight work before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8344", "listen address (port 0 = random)")
		addrFile    = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts wrapping -addr :0)")
		cacheDir    = flag.String("cache-dir", "", "persist learned snapshots under this directory (empty = memory only)")
		cacheSize   = flag.Int("cache-entries", 64, "in-memory snapshot LRU capacity")
		pool        = flag.Int("pool", server.DefaultPool(), "max compute requests in flight; excess requests queue")
		queueLen    = flag.Int("queue", 16, "max compute requests waiting for a pool slot; beyond that requests shed with 429 + Retry-After (negative = shed immediately)")
		reqTimeout  = flag.Duration("request-timeout", 0, "cap on each compute request's queue wait + run time; expired requests answer 504 (0 = unbounded; per-request timeout= is capped by this)")
		maxBodyMB   = flag.Int64("max-body-mb", 64, "largest accepted netlist in MiB")
		drain       = flag.Duration("drain", 30*time.Second, "on SIGINT/SIGTERM, wait up to this long for in-flight requests before exiting")
		dumpCircuit = flag.String("dump-circuit", "", "print a built-in circuit (figure1, figure2 or a suite name) as .bench and exit")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics and net/http/pprof on this side listener (keep it off the public interface)")
		slowReq     = flag.Duration("slow-request", 10*time.Second, "log requests slower than this at WARN with their span breakdown (0 = never)")
		quiet       = flag.Bool("quiet", false, "suppress per-request access logs (slow-request WARNs still emit)")
		version     = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("seqlearnd"))
		return
	}

	if *dumpCircuit != "" {
		if err := dump(*dumpCircuit); err != nil {
			fmt.Fprintln(os.Stderr, "seqlearnd:", err)
			os.Exit(1)
		}
		return
	}

	// Structured logs go to stderr (stdout keeps the human-facing startup
	// and shutdown lines); -quiet raises the floor to WARN so only slow
	// requests and problems emit.
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv := server.New(server.Config{
		Store:          store.Options{MaxEntries: *cacheSize, Dir: *cacheDir},
		MaxConcurrent:  *pool,
		MaxQueue:       *queueLen,
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBodyMB << 20,
		Logger:         logger,
		SlowRequest:    *slowReq,
	})

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seqlearnd: debug listener:", err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(dln, debugMux(srv)); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", slog.Any("err", err))
			}
		}()
		fmt.Printf("seqlearnd debug listener on %s (/metrics, /debug/pprof/)\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqlearnd:", err)
		os.Exit(1)
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, resolved); err != nil {
			fmt.Fprintln(os.Stderr, "seqlearnd:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("seqlearnd listening on %s (pool=%d, cache=%d entries", resolved, *pool, *cacheSize)
	if *cacheDir != "" {
		fmt.Printf(", dir=%s", *cacheDir)
	}
	fmt.Println(")")

	// A configured http.Server (not bare http.Serve): a header-read timeout
	// so an idle half-open connection cannot pin a goroutine forever, and a
	// Shutdown path so SIGINT/SIGTERM drains in-flight requests instead of
	// dropping them mid-computation.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "seqlearnd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal during the drain kills the process the default way

	// Readiness flips first: /healthz answers 503 "draining" from here on,
	// so a load balancer stops routing new work before the listener closes.
	srv.SetDraining(true)
	fmt.Printf("seqlearnd: shutting down (draining for up to %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "seqlearnd: drain incomplete:", err)
	}
	<-errc // Serve has returned ErrServerClosed by now

	// Final counters: what this process served and what its caches held.
	report, err := json.MarshalIndent(srv.StatsSnapshot(), "", "  ")
	if err == nil {
		fmt.Printf("seqlearnd: final stats:\n%s\n", report)
	}
}

// debugMux builds the side listener's handler: the pprof suite (the
// DefaultServeMux registrations, remounted explicitly so the public
// listener never inherits them) plus the same /metrics the main mux
// serves — convenient when the scrape network differs from the serving
// network.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", srv.Registry())
	return mux
}

// writeAddrFile publishes the resolved listen address via temp file +
// rename, so a script polling the path never reads a half-written line.
func writeAddrFile(path, addr string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(addr + "\n"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// dump prints a built-in circuit in the wire format, so shell scripts (and
// the CI smoke job) can produce request bodies without writing Go.
func dump(name string) error {
	switch name {
	case "figure1":
		return bench.Write(os.Stdout, circuits.Figure1())
	case "figure2":
		return bench.Write(os.Stdout, circuits.Figure2())
	}
	if _, ok := gen.Lookup(name); !ok {
		return fmt.Errorf("unknown circuit %q", name)
	}
	return bench.Write(os.Stdout, gen.MustBuild(name))
}
