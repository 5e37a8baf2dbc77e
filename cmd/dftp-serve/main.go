// Command dftp-serve runs the freeze-tag solver as a long-running HTTP
// daemon: a content-addressed result cache and a bounded job queue in front
// of the deterministic simulator.
//
// Usage:
//
//	dftp-serve [-addr :8080] [-workers 0] [-queue 64] [-cache-mb 64]
//	           [-log-format text|json] [-log-level info] [-pprof addr]
//	           [-trace-buffer 256] [-trace-sample 0.01] [-trace-slow 250ms]
//
// Endpoints:
//
//	POST /v1/solve         one solve (inline instance or family/n/param/seed)
//	POST /v1/portfolio     race several algorithms, return the winner
//	POST /v1/batch         many solves, order-preserving response
//	GET  /v1/solve/{hash}  cache probe (404 on miss, never computes)
//	GET  /v1/trace/{hash}  cached run's event stream, replayed, as NDJSON
//	GET  /healthz          liveness
//	GET  /statsz           cache hit rate, queue depth, solves/races served (JSON)
//	GET  /metricsz         full metric registry, Prometheus text exposition
//	GET  /buildz           build/version info and process uptime
//	GET  /tracez           flight recorder: recent kept request traces
//	GET  /tracez/{id}      one trace; ?format=trace-event for Perfetto
//
// Every solve/portfolio response carries a Server-Timing header with the
// request's per-stage breakdown and trace ID; -log-format/-log-level
// control the structured per-request log on stderr. -pprof starts
// net/http/pprof on a separate listener (keep it off public interfaces).
//
// Request tracing keeps slow (≥ -trace-slow), errored, and shed requests
// always, plus a -trace-sample fraction of the rest, in a -trace-buffer
// ring served by /tracez. Set -trace-buffer 0 to disable tracing,
// -trace-sample 0 to keep only the always-keep classes, -trace-slow 0 to
// drop the slow policy.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// complete, the queue drains, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"freezetag/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dftp-serve:", err)
		os.Exit(1)
	}
}

// newLogger builds the request logger from the -log-format/-log-level
// flags. Format "none" (or empty) disables request logging entirely — the
// service's hot path then never touches the logging machinery.
func newLogger(format, level string) (*slog.Logger, error) {
	if format == "" || format == "none" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text, json, or none", format)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "job queue depth (full queue sheds with 429)")
		cacheMB   = flag.Int64("cache-mb", 64, "result cache budget in MiB (approximate retained bytes: responses + replay inputs)")
		logFormat = flag.String("log-format", "text", "structured request log format: text, json, or none")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")

		traceBuffer = flag.Int("trace-buffer", 256, "completed-trace ring capacity for GET /tracez (0 = disable request tracing)")
		traceSample = flag.Float64("trace-sample", 0.01, "probability of keeping a fast successful request's trace (slow/errored/shed always keep)")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "always keep traces of requests at least this slow (0 = no slow policy)")
	)
	flag.Parse()

	// The service treats 0 as "use default" and negative as "disabled";
	// for flags the natural spelling of disabled is 0, so map it.
	cfgBuffer := *traceBuffer
	if cfgBuffer == 0 {
		cfgBuffer = -1
	}
	cfgSample := *traceSample
	if cfgSample == 0 {
		cfgSample = -1
	}
	cfgSlow := *traceSlow
	if cfgSlow == 0 {
		cfgSlow = -1
	}

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	svc := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheBytes:  *cacheMB << 20,
		Logger:      logger,
		TraceBuffer: cfgBuffer,
		TraceSample: cfgSample,
		TraceSlow:   cfgSlow,
	})
	defer svc.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux; serving that mux on a separate listener keeps
		// the profiler off the API address entirely.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "dftp-serve: pprof:", err)
			}
		}()
		defer pprofSrv.Close()
		fmt.Printf("dftp-serve: pprof on %s\n", *pprofAddr)
	}
	st := svc.Stats()
	fmt.Printf("dftp-serve: listening on %s (workers=%d queue=%d cache=%dMiB)\n",
		*addr, st.Workers, st.QueueCapacity, st.CacheCapacity>>20)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("dftp-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
