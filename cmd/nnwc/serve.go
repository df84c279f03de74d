package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nnwc/internal/serve"
	"nnwc/internal/serve/deploy"
)

// cmdServe runs the production prediction server: load one model (-model)
// or a whole fleet (-models tenant=path,...), answer /predict with
// cross-tenant coalesced batched inference, manage canary deployments on
// the /fleet endpoints, expose health and metrics, hot-reload on SIGHUP or
// POST /-/reload, and drain gracefully on SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "", "single persisted model artifact, served as tenant \"default\"")
	modelsSpec := fs.String("models", "", "fleet spec: tenant=path[,tenant=path...]")
	defaultTenant := fs.String("default-tenant", "", "tenant serving requests that name no model (default: the only tenant, when one is configured)")
	addr := fs.String("addr", ":8080", "listen address")
	maxBatch := fs.Int("max-batch", 64, "max rows coalesced into one forward call (1 disables coalescing)")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "max extra latency a lone row waits for batch-mates; it is held only while its batch group is coalescing")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request prediction timeout")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent inference workers per batch domain")
	warm := fs.Int("warm", 8, "max model versions kept loaded in the registry LRU")
	maxInflight := fs.Int("max-inflight", 0, "per-tenant in-flight request budget; beyond it requests shed with 429 (0 = uncapped)")
	latencyBudget := fs.Duration("latency-budget", 0, "per-request latency budget; requests that cannot finish inside it shed with 429 (0 = off)")
	promoteHMRE := fs.Float64("promote-hmre", 0.10, "auto-promote a canary whose rolling live-traffic HMRE stays at or below this")
	demoteHMRE := fs.Float64("demote-hmre", 0.25, "auto-rollback a live model whose rolling HMRE exceeds this")
	minObs := fs.Int("min-observations", 32, "observations a rolling window needs before the canary policy acts")
	autoPromote := fs.Bool("auto-promote", false, "let /observe traffic drive promotion and rollback automatically")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := obsf.start(args); err != nil {
		return err
	}

	models, err := parseModelsSpec(*modelsSpec)
	if err != nil {
		return obsf.finish(err)
	}
	if *modelPath == "" && len(models) == 0 {
		*modelPath = "model.json" // the pre-fleet default
	}
	cfg := serve.Config{
		Addr:           *addr,
		ModelPath:      *modelPath,
		Models:         models,
		DefaultTenant:  *defaultTenant,
		WarmModels:     *warm,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		RequestTimeout: *timeout,
		Workers:        *workers,
		MaxInflight:    *maxInflight,
		LatencyBudget:  *latencyBudget,
		Deploy: deploy.Config{
			PromoteHMRE:     *promoteHMRE,
			DemoteHMRE:      *demoteHMRE,
			MinObservations: *minObs,
			AutoPromote:     *autoPromote,
		},
		Trace: obsf.trace(),
	}
	return obsf.finish(cmdServeRun(obsf, cfg, *drain))
}

// parseModelsSpec parses "web=models/web.json,db=models/db.json".
func parseModelsSpec(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	models := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		tenant, path, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" || path == "" {
			return nil, fmt.Errorf("serve: -models entry %q is not tenant=path", part)
		}
		if prev, dup := models[tenant]; dup {
			return nil, fmt.Errorf("serve: tenant %q listed twice (%s and %s)", tenant, prev, path)
		}
		models[tenant] = path
	}
	return models, nil
}

func cmdServeRun(obsf *obsFlags, cfg serve.Config, drainDur time.Duration) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	recordFleet := func() {
		for _, a := range srv.Registry().Artifacts() {
			obsf.addModel(a.Tenant, a.Version, a.Path)
		}
	}
	recordFleet()
	obsf.setWorkers(cfg.Workers)
	obsf.setConfig("addr", srv.Addr())
	tenants := srv.Registry().Tenants()
	sort.Strings(tenants)
	obsf.setConfig("tenants", strings.Join(tenants, ","))
	obsf.infof("nnwc serve: %d model(s) [%s] on http://%s (batch<=%d, wait<=%s, %d workers)\n",
		len(tenants), strings.Join(tenants, ", "), srv.Addr(), cfg.MaxBatch, cfg.MaxWait, cfg.Workers)
	obsf.infof("nnwc serve: SIGHUP reloads every tenant's artifact, SIGINT/SIGTERM drains and exits\n")

	serveErr := make(chan error, 1)
	//lint:waive sched -- single waiter bridging srv.Wait into the shutdown select; no result-path work
	go func() { serveErr <- srv.Wait() }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-serveErr:
			if err == nil {
				return nil // clean close initiated elsewhere
			}
			return fmt.Errorf("serve: listener failed: %w", err)
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if err := srv.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "nnwc serve: %v (previous models keep serving)\n", err)
				} else {
					recordFleet() // changed bytes became new versions
					fmt.Println("nnwc serve: models reloaded")
				}
				continue
			}
			fmt.Printf("nnwc serve: %s — draining (up to %s)\n", sig, drainDur)
			ctx, cancel := context.WithTimeout(context.Background(), drainDur)
			defer cancel()
			return srv.Shutdown(ctx)
		}
	}
}
