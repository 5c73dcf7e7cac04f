// Command afqserver serves ObjectRank2 querying, explanation, and
// reformulation over HTTP — the counterpart of the paper's web demo
// (http://dbir.cis.fiu.edu/ObjectRankReformulation/).
//
// Endpoints (all JSON unless noted; see API.md for the full contract):
//
//	GET  /v1/query?q=olap&k=10
//	POST /v1/query/batch           {"queries":[{"q":"olap","k":10}, ...]}
//	GET  /v1/explain?q=olap&target=123
//	GET  /v1/audit?q=olap&target=123
//	GET  /v1/reformulate?q=olap&feedback=123,456&mode=structure|content|both
//	GET|PUT|POST|DELETE /v1/profile/{id}   (only with -profile-dir)
//	GET|POST /v1/rates
//	POST /v1/corpus/swap           (only with -swap-dir)
//	GET  /v1/healthz
//	GET  /v1/stats
//	GET  /metrics        (Prometheus text exposition; unversioned)
//	GET  /debug/pprof/   (only with -pprof)
//
// Errors are the uniform {"error":{code,message,requestId}} envelope.
// /v1/query/batch answers up to 64 queries under one rates snapshot
// with at most ⌈unique/BlockSize⌉ blocked kernel executions.
//
// The corpus comes from -snapshot (a binary corpus snapshot written by
// datagen or afq snapshot: zero-build cold start) or, without one, is
// generated in-process from -gen/-scale.
//
// Reformulation state (the trained rates) is per-process: subsequent
// queries use the latest rates, as in the deployed system.
//
// Every read is served through the serving cache (-cache-mb, default
// 64 MiB), which makes repeated and concurrent queries cheap: converged
// per-term score vectors and full top-k answers are cached under the
// current rates, concurrent identical misses collapse onto one power
// iteration, and the first solve of a term after a reformulation
// publishes new rates starts from the vector it had before. /v1/stats
// reports hit/miss/eviction/singleflight/bytes counters; /metrics
// exposes the same counters (plus per-handler latency histograms and
// kernel instrumentation) in Prometheus format.
//
// Admission control (off by default): -max-inflight caps concurrently
// admitted expensive requests (/v1/query, /v1/query/batch, /v1/explain,
// /v1/audit, /v1/reformulate; operator
// endpoints are never throttled) — excess requests wait up to
// -queue-wait for a slot and are then shed with 503 + Retry-After;
// -query-timeout sets a per-request deadline answered with 504 when it
// fires, and clients may shorten (never extend) it per request with
// the X-Request-Timeout-Ms header. A fired deadline reaches the
// power-iteration kernel within one sweep.
//
// Observability flags: -access-log ("-" for stderr, or a file path)
// turns on one structured JSON line per request; -slow-query-ms N logs
// requests slower than N ms together with their pipeline span events;
// -pprof mounts net/http/pprof under /debug/pprof/.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// closes and in-flight requests finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/server"
	"authorityflow/internal/storage"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		snap    = flag.String("snapshot", "", "binary corpus snapshot for a zero-build cold start (overrides -gen)")
		swapDir = flag.String("swap-dir", "", "directory whose binary snapshots POST /v1/corpus/swap may load (empty disables swapping)")
		gen     = flag.String("gen", "dblptop", "dataset preset to generate when -snapshot is empty: "+strings.Join(datagen.PresetNames(), ", "))
		scale   = flag.Float64("scale", 0.1, "scale factor when generating")
		cacheMB = flag.Int("cache-mb", 64, "serving-cache byte budget in MiB (must be positive)")

		maxInflight  = flag.Int("max-inflight", 0, "max concurrently admitted expensive requests (query, batch, explain, audit, reformulate); 0 = unlimited")
		queueWait    = flag.Duration("queue-wait", 0, "how long a request may wait for an admission slot before shedding with 503 (needs -max-inflight; 0 = shed immediately when saturated)")
		queryTimeout = flag.Duration("query-timeout", 0, "server-side per-request deadline, answered 504 when exceeded; clients may shorten it via X-Request-Timeout-Ms, never extend it (0 = none)")

		profileDir = flag.String("profile-dir", "", "directory for per-user personalization profiles (empty disables the /v1/profile tier)")
		basisSize  = flag.Int("basis-size", 0, "topic terms in the personalization basis (0 = default; needs -profile-dir)")

		accessLog = flag.String("access-log", "", `access log destination: "" off, "-" stderr, else a file path`)
		slowMS    = flag.Int("slow-query-ms", 0, "log requests slower than this many milliseconds with their span events (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *cacheMB <= 0 {
		fmt.Fprintln(os.Stderr, "afqserver: -cache-mb must be positive: every read is served through the serving cache")
		os.Exit(2)
	}

	var ds *datagen.Dataset
	var ix *ir.Index
	var err error
	if *snap != "" {
		// Cold start: validate-then-slice the checksummed snapshot and
		// serve its frozen CSR arrays and inverted index directly — no
		// graph building, no index building.
		t0 := time.Now()
		ds, ix, err = storage.ReadSnapshotFile(*snap)
		if err == nil {
			log.Printf("afqserver: loaded snapshot %s in %s", *snap, time.Since(t0))
		}
	} else {
		ds, err = datagen.Preset(*gen, *scale, 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqserver: %v\n", err)
		os.Exit(1)
	}

	obsOpts, logCloser, err := obsOptions(*accessLog, *slowMS, *pprofOn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqserver: %v\n", err)
		os.Exit(1)
	}
	if logCloser != nil {
		defer logCloser.Close()
	}

	opts := []server.Option{
		server.WithCache(int64(*cacheMB)<<20, 0),
		server.WithObservability(obsOpts),
		server.WithAdmission(server.AdmissionOptions{
			MaxInflight:  *maxInflight,
			QueueWait:    *queueWait,
			QueryTimeout: *queryTimeout,
		}),
	}
	if *swapDir != "" {
		opts = append(opts, server.WithSwapDir(*swapDir))
	}
	if *profileDir != "" {
		opts = append(opts, server.WithProfiles(*profileDir, *basisSize))
	}
	var s *server.Server
	if ix != nil {
		s, err = server.NewWithIndex(ds, ix, core.Config{}, opts...)
	} else {
		s, err = server.New(ds, core.Config{}, opts...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqserver: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqserver: %v\n", err)
		os.Exit(1)
	}
	log.Println(listenBanner(ln.Addr()))
	log.Printf("afqserver: %s (%d nodes, %d edges) on %s (cache %d MiB)",
		ds.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), ln.Addr(), *cacheMB)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := newHTTPServer(s.Handler())
	if err := serve(ctx, srv, ln); err != nil {
		log.Fatalf("afqserver: %v", err)
	}
	log.Printf("afqserver: shut down cleanly")
}

// listenBanner is the machine-greppable startup line announcing the
// EFFECTIVE listen address. With -addr :0 the kernel picks a free
// port, so a spawning harness (test, CI script, the router's smoke
// setup) cannot know the address up front — it parses this line from
// stderr to learn where the server actually listens.
func listenBanner(addr net.Addr) string {
	return "afqserver: listening on " + addr.String()
}

// newHTTPServer builds the production http.Server configuration:
// header-read and idle timeouts so slow-loris clients and dead
// keep-alive connections cannot pin resources forever. No WriteTimeout:
// large-k queries on big corpora legitimately stream for a while.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// serve runs srv on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately and in-flight requests
// get up to 10 s to finish. Returns nil on a clean shutdown.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// obsOptions translates the observability flags into server options.
// The returned closer is non-nil when the access log went to a file.
func obsOptions(accessLog string, slowMS int, pprofOn bool) (server.ObsOptions, io.Closer, error) {
	o := server.ObsOptions{
		SlowThreshold: time.Duration(slowMS) * time.Millisecond,
		Pprof:         pprofOn,
	}
	var closer io.Closer
	switch accessLog {
	case "":
	case "-":
		o.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return o, nil, fmt.Errorf("access log: %w", err)
		}
		o.AccessLog = f
		closer = f
	}
	if slowMS > 0 && o.AccessLog == nil {
		// Slow-query logging with no access-log destination still needs
		// somewhere to write; default to stderr.
		o.SlowLog = os.Stderr
	}
	return o, closer, nil
}
