// Command hap-serve runs the HAP plan-cache daemon: an HTTP service that
// synthesizes distributed plans for (graph, cluster) requests and memoizes
// them in a content-addressed LRU cache, so a fleet of trainers asking for
// the same model on the same cluster pays for one synthesis.
//
// Usage:
//
//	hap-serve [-addr :8080] [-cache-entries 1024] [-synth-budget 60s]
//	          [-max-inflight-synth 0]
//	          [-cache-dir /var/lib/hap/plans] [-cache-ttl 0]
//	          [-self URL] [-peers URL,URL] [-peers-file PATH] [-replicas 2]
//	          [-log-format text] [-trace-ring 256] [-trace-slow 0]
//	          [-debug-addr ""]
//
// Endpoints (wire protocol v2): POST /v1/synthesize (one plan per request,
// answered with the binary plan payload, application/x-hap-plan, whatever
// the Accept header says; K clusters are K requests), GET/POST
// /v1/fleet/entries, GET /healthz
// (liveness, protocol and fleet membership), GET /metrics (every counter,
// Prometheus text format), GET /v1/debug/traces[/<id>[?format=chrome]].
// With -cache-dir, cached plans are written through to disk and restored on
// the next boot (oldest first, preserving LRU order); every LRU eviction
// deletes its file, so the directory stays within -cache-entries plans.
// -cache-ttl expires aged plans: one found past the TTL when the cache is
// read (a lookup, a donor or drift scan, a warm-up stream, a /metrics
// scrape) is evicted and its file deleted, and a boot restores none. The
// daemon runs no timer of its own for it; -synth-budget is the deadline of
// each synthesis's context.
//
// Fleet mode: -self names this node's advertise URL and -peers/-peers-file
// the other members. Request fingerprints are consistent-hash routed to an
// owner node, misses proxy to the owner (so a fleet-wide thundering herd
// synthesizes exactly once), filled entries replicate to -replicas nodes,
// and a booting node warms its cache from a peer. The peers file is
// re-read on SIGHUP and polled every 10s; peers' /healthz is probed every
// 5s. See internal/serve and README "Running a fleet".
//
// Live telemetry: POST /v1/telemetry ingests probe measurements (per-link
// bandwidth/latency, per-device achieved TFLOPS) against the spec cluster
// they measure; when the smoothed live view drifts past 10%, the report
// re-solves the sharding ratios of every cached plan for that cluster on its
// cached program — a linear program per plan, no search — and swaps each
// changed plan in: its ETag changes, so a conditional fetch gets the new
// plan. See README "Live telemetry & replanning".
//
// Observability: every request is traced end-to-end (decode, cache lookup,
// fleet proxy hop, synthesis phases, encode, replication) and the last
// -trace-ring traces are browsable at /v1/debug/traces — as JSON or, with
// ?format=chrome, a file chrome://tracing opens directly. -trace-slow logs
// a structured breakdown of requests slower than the threshold (negative =
// every request). Logs are structured (log/slog); -log-format json emits
// one JSON object per line. -debug-addr serves net/http/pprof and
// /debug/vars on a separate listener, off the request path. See README
// "Debugging a slow request".
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on the default mux (debug listener)
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux (debug listener)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hap/internal/fleet"
	"hap/internal/obs"
	"hap/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	entries := flag.Int("cache-entries", serve.DefaultMaxCacheEntries, "max cached plans")
	budget := flag.Duration("synth-budget", serve.DefaultSynthTimeBudget,
		"wall-clock budget per request's synthesis, covering the whole optimization loop (0 = unlimited)")
	maxInflight := flag.Int("max-inflight-synth", 0,
		"max concurrent local syntheses; excess cache misses are shed with 429 + Retry-After (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "",
		"write cached plans through to this directory and restore them on boot (empty = memory only)")
	cacheTTL := flag.Duration("cache-ttl", 0,
		"expire cached plans (and their persisted files) older than this age (0 = never)")
	self := flag.String("self", "",
		"this node's advertise URL for fleet mode, e.g. http://10.0.0.1:8080 (empty = standalone)")
	peers := flag.String("peers", "",
		"comma-separated peer URLs forming the fleet (combined with -peers-file)")
	peersFile := flag.String("peers-file", "",
		"file with one peer URL per line (# comments); re-read on SIGHUP and every 10s")
	replicas := flag.Int("replicas", fleet.DefaultReplicas,
		"total copies of each cached plan across the fleet, owner included")
	logFormat := flag.String("log-format", "text",
		"log line format: text or json (one object per line, machine-parseable)")
	traceRing := flag.Int("trace-ring", serve.DefaultTraceRing,
		"completed request traces retained for GET /v1/debug/traces (0 = disable tracing)")
	traceSlow := flag.Duration("trace-slow", 0,
		"log a structured span breakdown of requests slower than this (0 = off, negative = every request)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof and /debug/vars on this address, off the main listener (empty = off)")
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)

	synthBudget := *budget
	if synthBudget == 0 {
		synthBudget = -1 // Config treats 0 as "use default"; negative = unlimited
	}
	ring := *traceRing
	if ring == 0 {
		ring = -1 // Config treats 0 as "use default"; negative = tracing off
	}

	var fl *fleet.Fleet
	if *self != "" {
		var static []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				static = append(static, p)
			}
		}
		var err error
		fl, err = fleet.New(fleet.Config{
			Self:      *self,
			Peers:     static,
			PeersFile: *peersFile,
			Replicas:  *replicas,
		})
		if err != nil {
			logger.Error("fleet configuration failed", "error", err)
			os.Exit(1)
		}
		fl.Start()
		defer fl.Stop()
		logger.Info("fleet mode", "self", fl.Self(), "members", strings.Join(fl.Members.Peers(), ","), "replicas", fl.ReplicaCount())
	} else if *peers != "" || *peersFile != "" {
		logger.Error("-peers/-peers-file require -self (this node's advertise URL)")
		os.Exit(1)
	}

	s := serve.New(serve.Config{
		MaxCacheEntries:  *entries,
		SynthTimeBudget:  synthBudget,
		MaxInflightSynth: *maxInflight,
		CacheDir:         *cacheDir,
		CacheTTL:         *cacheTTL,
		Fleet:            fl,
		TraceRing:        ring,
		TraceSlow:        *traceSlow,
		Logger:           logger,
	})
	if *cacheDir != "" {
		logger.Info("cache restored", "plans", s.Stats().CacheRestored, "dir", *cacheDir)
	}

	// Warm up from a peer before accepting traffic: every entry streamed in
	// is a synthesis this node will not re-pay. Best-effort — a partial
	// transfer keeps what arrived, a fleet of one just starts cold.
	if fl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		n, err := s.WarmFrom(ctx, fl.Members.Peers())
		cancel()
		switch {
		case err != nil && n == 0:
			logger.Warn("warm-up: no peer reachable, starting cold", "error", err)
		case err != nil:
			logger.Warn("warm-up: stream interrupted", "plans", n, "error", err)
		default:
			logger.Info("warm-up complete", "plans", n)
		}
	}

	// SIGHUP re-reads the peers file; SIGINT/SIGTERM shut down gracefully.
	if fl != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				changed, err := fl.Members.Reload()
				switch {
				case err != nil:
					logger.Warn("SIGHUP reload failed", "error", err)
				case changed:
					logger.Info("SIGHUP reload", "members", strings.Join(fl.Members.Peers(), ","))
				default:
					logger.Info("SIGHUP reload: membership unchanged")
				}
			}
		}()
	}

	// The debug listener serves the profiling surface — /debug/pprof/* and
	// /debug/vars land on the default mux via their packages' init — on its
	// own address, so profiles can be pulled without exposing pprof to plan
	// clients and without contending with the request listener.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener on", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		defer dbg.Close()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown incomplete", "error", err)
		}
	}()

	logger.Info("listening", "addr", *addr, "cache_entries", *entries)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	}
	<-done
}
