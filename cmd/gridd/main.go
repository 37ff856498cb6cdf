// Command gridd is the online scheduler daemon: a federated grid broker
// serving a fleet of simulated clusters behind one API, routing jobs and
// CiGri-style best-effort campaigns across them with a pluggable grid
// policy. With -topology the fleet comes from a JSON file; without it,
// gridd serves a one-cluster fleet built from -m -speed -policy -kill
// -dilation — as in the paper, a single cluster is a one-cluster grid,
// and both run the same code.
//
// Usage examples:
//
//	gridd -m 128 -policy easy -dilation 60        # 1 wall second = 60 sim seconds
//	gridd -policy conservative -dilation 0        # free-running (as fast as possible)
//	gridd -topology fleet.json                    # multi-cluster fleet
//
// `gridctl policies` prints the local and grid policy catalogs. An
// empty -data-dir (the default) keeps the run store in memory.
//
// Every route is under /v1: POST /v1/jobs, GET /v1/jobs/{id},
// GET /v1/queue, GET /v1/stats, GET /v1/metrics (Prometheus text,
// per-cluster series labelled {cluster="name"}), GET /v1/policies,
// GET /v1/topology, POST /v1/campaigns, GET /v1/campaigns[/{id}], the
// run-lifecycle API (POST /v1/runs, GET /v1/runs[/{id}],
// GET /v1/runs/{id}/events SSE stream, GET /v1/runs/{id}/result,
// GET /v1/runs/{id}/trace, DELETE /v1/runs/{id}; -max-runs bounds
// concurrent scenario execution), GET /v1/version and, with -fleet,
// the /v1/fleet lease protocol.
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops accepting
// submissions, fast-forwards every accepted job and every campaign task
// to completion, prints the final report, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // registers the scenario kinds + catalog for the run API
	"repro/internal/fleet"
	"repro/internal/gridservice"
	"repro/internal/store"
	"repro/pkg/client"
)

func main() {
	var (
		addr     = flag.String("addr", ":8042", "HTTP listen address")
		m        = flag.Int("m", 64, "cluster width (processors) of the one-cluster fleet served without -topology")
		speed    = flag.Float64("speed", 1, "cluster speed factor (without -topology)")
		policy   = flag.String("policy", "easy", "online policy name, see gridctl policies (without -topology)")
		kill     = flag.String("kill", "newest", "best-effort eviction policy: newest|largest (without -topology)")
		dilation = flag.Float64("dilation", 60, "simulated seconds per wall second, 0 = free-running (without -topology)")
		topology = flag.String("topology", "", "fleet topology file: serve a multi-cluster fleet instead of one cluster")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on shutdown")
		maxRuns  = flag.Int("max-runs", 2, "concurrent server-side scenario runs; further submissions queue, then get 429 + Retry-After")
		logReqs  = flag.Bool("log-requests", false, "log one line per API request (method, path, status, duration, bytes, run id)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (outside the API body caps)")

		dataDir  = flag.String("data-dir", "", "durable run store directory (WAL + compacting snapshots); empty = in-memory store")
		tenantsF = flag.String("tenants", "", "tenants file (JSON): per-tenant API keys and admission quotas")

		fleetOn  = flag.Bool("fleet", false, "coordinator mode: shard run cells across fleet workers via /v1/fleet")
		fleetTTL = flag.Duration("fleet-ttl", 15*time.Second, "fleet lease TTL (expired leases requeue their cells)")

		workerMode  = flag.Bool("worker", false, "worker mode: lease and execute cells from -coordinator instead of serving")
		coordinator = flag.String("coordinator", "http://localhost:8042", "coordinator base URL for -worker mode")
		workerID    = flag.String("worker-id", "", "worker identity (-worker mode; default host-pid)")
		workerBatch = flag.Int("worker-batch", 4, "max cells leased per request (-worker mode)")
		workerPool  = flag.Int("worker-pool", 0, "local cell parallelism per lease (-worker mode; 0 = GOMAXPROCS)")

		version = flag.Bool("version", false, "print build identity (version, go toolchain, catalog hash) and exit")
	)
	flag.Parse()
	if *version {
		v := api.CurrentVersion()
		fmt.Printf("gridd %s %s catalog %s (%d scenarios, %d kinds)\n",
			v.Version, v.GoVersion, v.CatalogHash, v.Scenarios, v.Kinds)
		return
	}
	if *workerMode {
		runWorker(*coordinator, *workerID, *workerBatch, *workerPool)
		return
	}
	apiCfg, closeStore := buildAPIConfig(*maxRuns, *logReqs, *dataDir, *tenantsF)
	defer closeStore()
	if *fleetOn {
		fl := fleet.NewCoordinator(fleet.Config{TTL: *fleetTTL})
		defer fl.Close()
		log.Printf("gridd: fleet coordinator enabled (lease TTL %v, catalog %s)",
			*fleetTTL, fl.Build().CatalogHash)
		apiCfg.Fleet = fl
	}
	topo := gridservice.Topology{
		Dilation: *dilation,
		Clusters: []gridservice.ClusterSpec{{M: *m, Speed: *speed, Policy: *policy, Kill: *kill}},
	}
	if *topology != "" {
		// The topology file is the whole configuration; warn about
		// explicitly passed one-cluster flags that would otherwise be
		// dropped silently.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "m", "speed", "policy", "kill", "dilation":
				log.Printf("gridd: -%s is ignored with -topology (set it in %s)", f.Name, *topology)
			}
		})
		var err error
		if topo, err = gridservice.LoadTopology(*topology); err != nil {
			log.Fatalf("gridd: %v", err)
		}
	}
	runBroker(topo, *addr, *drainT, apiCfg, *pprofOn)
}

// buildAPIConfig assembles the shared run-service configuration: the
// executor bounds, and — when requested — the durable store and the
// tenant set. The returned closer releases the store's WAL handle.
func buildAPIConfig(maxRuns int, logReqs bool, dataDir, tenantsPath string) (api.Config, func()) {
	cfg := api.Config{MaxActive: maxRuns, Log: requestLogger(logReqs)}
	closeStore := func() {}
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{})
		if err != nil {
			log.Fatalf("gridd: run store: %v", err)
		}
		cfg.Store = st
		closeStore = func() { st.Close() }
		log.Printf("gridd: durable run store at %s (%d runs recovered, seq %d)",
			dataDir, len(st.Runs()), st.Seq())
	}
	if tenantsPath != "" {
		ts, err := store.LoadTenants(tenantsPath)
		if err != nil {
			log.Fatalf("gridd: %v", err)
		}
		cfg.Tenants = ts
		log.Printf("gridd: multi-tenant mode: %s", strings.Join(ts.Names(), ", "))
	}
	return cfg, closeStore
}

// runBroker serves the fleet until SIGTERM/SIGINT, then drains it.
func runBroker(topo gridservice.Topology, addr string, drainT time.Duration, cfg api.Config, pprofOn bool) {
	b, err := gridservice.NewBroker(topo)
	if err != nil {
		log.Fatalf("gridd: %v", err)
	}
	b.Start()
	runs := api.NewRunService(cfg)
	defer runs.Close()
	srv := &http.Server{Addr: addr, Handler: withPprof(b.Handler(runs), pprofOn)}

	topo = b.Topology()
	procs := 0
	for _, c := range topo.Clusters {
		procs += c.M
	}
	log.Printf("gridd: serving on %s (%d clusters, %d procs, grid policy %s, dilation %gx)",
		addr, len(topo.Clusters), procs, topo.GridPolicy, topo.Dilation)
	serve(srv, func() { b.Stop() })

	ctx, cancel := context.WithTimeout(context.Background(), drainT)
	defer cancel()
	st, err := b.Drain(ctx)
	if err != nil {
		log.Printf("gridd: drain: %v", err)
	} else {
		fmt.Printf("gridd: drained fleet: submitted=%d completed=%d campaigns=%d/%d best-effort=%d (killed %d)\n",
			st.Fleet.Submitted, st.Fleet.Completed, st.Fleet.CampaignsDone, st.Fleet.Campaigns,
			st.Fleet.BestEffort.Completed, st.Fleet.BestEffort.Killed)
		for _, cs := range st.Clusters {
			fmt.Printf("gridd:   %-12s m=%-4d completed=%-6d best-effort=%d\n",
				cs.Name, cs.Stats.M, cs.Stats.Completed, cs.Stats.BestEffort.Completed)
		}
	}
	_ = srv.Shutdown(ctx)
	b.Stop()
}

// runWorker joins a coordinator's fleet: version handshake first (a
// mismatched catalog hash would silently break the coordinator's
// deterministic merge), then the lease/execute/report loop until
// SIGTERM/SIGINT, which drains gracefully — finished cells of the
// current batch are still reported, unfinished ones requeue on the
// coordinator when the lease TTL expires.
func runWorker(base, id string, batch, pool int) {
	cl := client.New(base)
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	mine := api.CurrentBuild()
	v, err := cl.Version(ctx)
	if err != nil {
		log.Fatalf("gridd: worker: coordinator %s: %v", base, err)
	}
	theirs := v.BuildInfo
	if !mine.Compatible(theirs) {
		log.Fatalf("gridd: worker: incompatible coordinator %s: local %+v, remote %+v", base, mine, theirs)
	}
	log.Printf("gridd: worker joining %s (catalog %s)", base, mine.CatalogHash)

	err = fleet.RunWorker(ctx, cl, fleet.WorkerConfig{
		ID: id, Batch: batch, Workers: pool, Log: log.Default(),
	})
	if err != nil && ctx.Err() == nil {
		log.Fatalf("gridd: worker: %v", err)
	}
	log.Printf("gridd: worker: drained, exiting")
}

// requestLogger resolves the -log-requests flag into the middleware's
// optional logger (nil = no per-request log lines).
func requestLogger(enabled bool) *log.Logger {
	if !enabled {
		return nil
	}
	return log.Default()
}

// withPprof mounts the net/http/pprof handlers on an outer mux so
// profile downloads bypass the API middleware (body caps, request
// logging); the daemon API is served unchanged at every other path.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	root := http.NewServeMux()
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root.Handle("/", h)
	return root
}

// serve runs the HTTP server until SIGTERM/SIGINT (returning normally,
// so the caller drains) or a listen error (fatal, after cleanup).
func serve(srv *http.Server, cleanup func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case sig := <-sigc:
		log.Printf("gridd: %v: draining", sig)
	case err := <-errc:
		cleanup()
		log.Fatalf("gridd: %v", err)
	}
}
