// Command castd is the schema cast revalidation daemon: a long-running
// HTTP service that registers schemas, amortizes the per-pair
// preprocessing (R_sub/R_dis relations and immediate decision automata) in
// an LRU cache, and cast-validates documents streamed through request
// bodies — the message-broker deployment of EDBT'04 §1.
//
// Usage:
//
//	castd -addr :8347
//
//	curl -X PUT --data-binary @v1.xsd localhost:8347/schemas/v1
//	curl -X PUT --data-binary @v2.xsd localhost:8347/schemas/v2
//	curl -X POST --data-binary @order.xml localhost:8347/cast/v1/v2
//	curl localhost:8347/pairs/v1/v2     # static compatibility, no document
//	curl localhost:8347/metrics         # Prometheus text exposition
//	curl localhost:8347/metrics.json    # JSON: registry cache counters + every family
//	curl localhost:8347/debug/traces    # retained request traces (spans)
//	curl localhost:8347/debug/profiles  # continuous-profiling ring (pprof)
//	curl localhost:8347/debug/hotpairs  # per-pair cast cost attribution
//	curl localhost:8347/debug/fleet     # cluster-wide merged metric view
//
// Logging is structured (log/slog); -log-format selects the text or JSON
// handler. Every record emitted while a request is active carries the
// request's trace_id/span_id, so log lines correlate with the spans on
// /debug/traces. Tracing is sampled at the tail: -trace-sample sets the
// head probability (0 disables tracing entirely), and slow (>=
// -trace-slow) or failed requests are always retained while tracing is on.
//
// With -otlp-endpoint every trace the tail sampler retains and a periodic
// snapshot of every metric family are exported to an OTLP/HTTP collector
// as JSON (POST <endpoint>/v1/traces and /v1/metrics). Export is
// fire-and-forget behind a bounded drop-oldest queue — a slow or down
// collector never blocks a request — and the exporter accounts for itself
// on /metrics (castd_otlp_*). Shutdown flushes the queue.
//
// With -artifact-dir the daemon persists each compiled pair as a
// content-addressed artifact blob and warms from that directory after a
// restart with zero recompiles; corrupt or stale blobs are quarantined and
// recompiled. With -peers (plus -self-url) daemons form a cluster: each
// pair key has one rendezvous-hash owner, and the other members fetch its
// compiled artifact (or proxy the first request to it) instead of
// compiling their own copy.
//
// With -pprof the net/http/pprof profiling handlers are mounted under
// /debug/pprof/ (off by default: profiling endpoints leak heap contents
// and should never face untrusted clients).
//
// On SIGINT/SIGTERM the daemon flips /healthz to 503 (so load balancers
// drain it), stops accepting connections and finishes in-flight
// validations, up to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/profiling"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/telemetry/otlp"
)

func main() {
	var (
		addr         = flag.String("addr", ":8347", "listen address")
		cacheEntries = flag.Int("cache-entries", 64, "max cached compiled schema pairs (0 = unlimited)")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "approximate byte budget for cached pairs (0 = unlimited)")
		workers      = flag.Int("workers", 0, "batch validation workers per request (0 = one per CPU)")
		drain        = flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight validations")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		accessLog    = flag.Bool("access-log", false, "log one record per request (request id, route, status, duration, trace id)")
		logFormat    = flag.String("log-format", "text", "log handler: text or json")
		traceSample  = flag.Float64("trace-sample", 1, "head sampling probability for request traces in [0,1]; 0 disables tracing")
		traceSlow    = flag.Duration("trace-slow", telemetry.DefaultSlowThreshold, "requests at least this slow are always retained by the tail sampler")
		traceBuffer  = flag.Int("trace-buffer", telemetry.DefaultTraceCapacity, "retained-trace ring capacity for /debug/traces")
		castTimeout  = flag.Duration("cast-timeout", 30*time.Second, "per-request deadline for cast and batch validations; stalled reads and long casts fail with 408 (0 = no deadline)")
		maxDocBytes  = flag.Int64("max-doc-bytes", 64<<20, "max bytes per document; larger casts fail with 413, larger batch entries fail their slot (0 = unlimited)")
		maxDepth     = flag.Int("max-depth", 1024, "max open-element depth per document; deeper documents fail with 422 (0 = unlimited)")
		maxElements  = flag.Int64("max-elements", 10_000_000, "max elements per document, visited plus skimmed; larger documents fail with 422 (0 = unlimited)")
		maxInFlight  = flag.Int("max-in-flight", 256, "max concurrently admitted work requests; excess requests are shed with 429 + Retry-After (0 = unlimited)")
		faultSpec    = flag.String("fault-inject", "", "arm fault injection for chaos testing, e.g. \"compile-panic,read-delay=50ms\" (never use in production)")
		runtimeIvl   = flag.Duration("runtime-metrics-interval", 10*time.Second, "Go runtime health sampling cadence for the go_* metric families (0 = sample once at startup only)")
		profRing     = flag.Int("profile-ring", 32, "retained profiles in the /debug/profiles ring")
		profBaseline = flag.Duration("profile-baseline", 10*time.Minute, "period of the low-rate baseline profile capture (0 = no baseline)")
		profCPU      = flag.Duration("profile-cpu-duration", 5*time.Second, "CPU profiling window per capture")
		profLatency  = flag.Duration("profile-latency-threshold", 0, "capture a profile when a work request is at least this slow (0 = trigger off)")
		profHeap     = flag.Int64("profile-heap-growth", 0, "capture a heap profile when live heap grows by at least this many bytes between checks (0 = trigger off)")
		hotPairs     = flag.Int("hot-pairs", server.DefaultHotPairK, "schema pairs tracked individually on /metrics and /debug/hotpairs; the rest fold into pair=\"other\" (negative = off)")
		peerProbe    = flag.Duration("peer-probe-interval", server.DefaultPeerProbeInterval, "peer health probe cadence feeding castd_peer_up (clustered daemons only)")
		peerTimeout  = flag.Duration("peer-timeout", server.DefaultPeerTimeout, "deadline per peer attempt (artifact fetch or hedge); the whole chain is bounded by -cast-timeout")
		peerRetries  = flag.Int("peer-retries", server.DefaultPeerRetries, "retries per failed peer fetch, granted by the global retry budget (negative = no retries)")
		brkFailures  = flag.Int("peer-breaker-failures", 5, "consecutive peer failures that open its circuit breaker")
		brkOpenFor   = flag.Duration("peer-breaker-open-for", 5*time.Second, "cool-off an open breaker waits before admitting one probe request")
		hedgeAfter   = flag.Duration("hedge-after", 100*time.Millisecond, "hedge an artifact fetch to another warm peer after this long (floor under the observed p95; 0 = hedging off)")
		degradedMode = flag.String("degraded-mode", server.DegradedModeLocal, "what a non-owner serves while the owner's breaker is open: local (compile here), stale (serve disk artifacts only), fail (503 + Retry-After)")
		artifactDir  = flag.String("artifact-dir", "", "persist compiled pair artifacts in this directory; a restarted daemon warms from it with zero recompiles (empty = in-memory only)")
		peersFlag    = flag.String("peers", "", "comma-separated base URLs of every cluster member; each pair is compiled once cluster-wide by its rendezvous-hash owner (empty = standalone)")
		selfURL      = flag.String("self-url", "", "this instance's base URL as peers address it, e.g. http://10.0.0.1:8347 (required with -peers)")
		otlpEndpoint = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL, e.g. http://collector:4318; retained traces and periodic metric snapshots are exported there (empty = export off)")
		otlpInterval = flag.Duration("otlp-interval", otlp.DefaultInterval, "metric snapshot export cadence for -otlp-endpoint")
		otlpQueue    = flag.Int("otlp-queue", otlp.DefaultQueueSize, "OTLP export queue capacity; the oldest batch is dropped on overflow")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: castd [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	var inner slog.Handler
	switch *logFormat {
	case "text":
		inner = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		inner = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "castd: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	// The correlating wrapper stamps trace_id/span_id onto every record
	// logged with a request context — castd's, the server's and the
	// registry's records all correlate with /debug/traces.
	logger := slog.New(telemetry.NewCorrelateHandler(inner))

	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
		Capacity:      *traceBuffer,
	})

	switch *degradedMode {
	case server.DegradedModeLocal, server.DegradedModeStale, server.DegradedModeFail:
	default:
		fmt.Fprintf(os.Stderr, "castd: -degraded-mode must be local, stale or fail, got %q\n", *degradedMode)
		os.Exit(2)
	}

	var peers []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "castd: -peers requires -self-url so this instance knows which pair keys it owns")
			os.Exit(2)
		}
	}

	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		store, err = artifact.OpenStore(*artifactDir, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castd: -artifact-dir: %v\n", err)
			os.Exit(2)
		}
		logger.Info("castd: artifact store open", "dir", *artifactDir)
	}

	reg := registry.New(registry.Config{
		MaxEntries: *cacheEntries,
		MaxBytes:   *cacheBytes,
		Logger:     logger,
		Store:      store,
	})
	if *faultSpec != "" {
		cfg, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castd: -fault-inject: %v\n", err)
			os.Exit(2)
		}
		faultinject.Enable(cfg)
		logger.Warn("castd: fault injection armed — this build will fail on purpose",
			"spec", *faultSpec)
	}
	// The profiling ring captures on a low-rate baseline plus anomaly
	// triggers; the server feeds it slow-request, shed and panic events.
	prof := profiling.New(profiling.Options{
		Capacity:         *profRing,
		CPUDuration:      *profCPU,
		BaselineInterval: *profBaseline,
		LatencyThreshold: *profLatency,
		HeapGrowth:       *profHeap,
		Logger:           logger,
	})
	prof.Start()
	defer prof.Stop()

	srv := server.New(reg, server.Options{
		Workers:             *workers,
		Logger:              logger,
		AccessLog:           *accessLog,
		Tracer:              tracer,
		CastTimeout:         *castTimeout,
		MaxDocBytes:         *maxDocBytes,
		MaxDepth:            *maxDepth,
		MaxElements:         *maxElements,
		MaxInFlight:         *maxInFlight,
		Profiler:            prof,
		HotPairK:            *hotPairs,
		PeerProbeInterval:   *peerProbe,
		PeerTimeout:         *peerTimeout,
		PeerRetries:         *peerRetries,
		PeerBreakerFailures: *brkFailures,
		PeerBreakerOpenFor:  *brkOpenFor,
		HedgeAfter:          *hedgeAfter,
		DegradedMode:        *degradedMode,
		SelfURL:             *selfURL,
		Peers:               peers,
		OTLPEndpoint:        *otlpEndpoint,
		OTLPInterval:        *otlpInterval,
		OTLPQueue:           *otlpQueue,
	})
	defer srv.Close()

	// Runtime health sampling lands on the same /metrics page as the cast
	// families; one construction-time sample means the first scrape is
	// never empty.
	runtimeStats := telemetry.NewRuntimeCollector(srv.Metrics(), *runtimeIvl)
	runtimeStats.Start()
	defer runtimeStats.Stop()
	var handler http.Handler = srv
	if *pprofOn {
		// Explicit registrations instead of the package's init-time
		// DefaultServeMux side effect: the endpoints exist only when asked
		// for.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		logger.Info("castd: pprof enabled", "path", "/debug/pprof/")
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("castd: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// The resolved address matters when -addr asked for port 0.
	logger.Info("castd: listening",
		"addr", ln.Addr().String(),
		"trace_sample", *traceSample,
		"log_format", *logFormat)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Error("castd: serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	srv.SetDraining(true) // /healthz answers 503 from here on
	logger.Info("castd: draining in-flight validations", "deadline", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("castd: drain incomplete", "err", err)
		os.Exit(1)
	}
	logger.Info("castd: bye")
}
