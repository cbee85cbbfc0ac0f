// Command strudel builds and serves Web sites from a site manifest,
// exercising the full architecture of the paper's Fig. 1.
//
// Usage:
//
//	strudel build -manifest site.manifest -out dir/ [-publish] [-keep N] [-trace] [-trace-out build.trace.json] [-workers N]
//	strudel serve -manifest site.manifest -addr :8080 [-dynamic] [-metrics]
//	              [-publish dir/] [-keep N]
//	              [-refresh-interval 5m] [-request-timeout 10s] [-max-inflight 256]
//	              [-workers N]
//	strudel verify [-json] <dir>
//	strudel stats -manifest site.manifest [-trace] [-trace-out build.trace.json] [-workers N]
//	strudel explain (-manifest site.manifest | -example cnn) [-json] [-optimize] [-workers N]
//	strudel why (-manifest site.manifest | -example cnn) [-json] [-workers N] <page>
//
// -workers bounds the build pipeline's parallelism (query evaluation,
// page rendering, dynamic materialization); 0 — the default — means
// one worker per available CPU, 1 builds sequentially. The built site
// is byte-identical at any worker count.
// -trace prints the build's span timeline (mediation → query → verify
// → generate); -trace-out writes the same trace as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing. -metrics instruments
// the server and exposes /metrics (Prometheus text format),
// /debug/vars, /debug/pprof, and the query-level introspection
// endpoints /debug/explain and /debug/provenance?page=….
//
// explain evaluates the site-definition queries with per-operator
// profiling and prints, per query, the block-structured plan with
// estimated vs actual cardinalities — without writing any pages. why
// builds the site, then re-runs its queries recording provenance, and
// prints for one page the Skolem function that created it, the binding
// tuples behind it, and the source objects and attributes it consumed.
// Both accept -example (cnn, cnn-sports, homepage, org) to run against
// a built-in workload instead of a manifest.
// build -publish writes the site as a crash-safe generation (gen-N/
// with a SHA-256 manifest, committed by atomically flipping a CURRENT
// pointer) instead of syncing loose pages; -keep bounds retained
// generations. serve -publish does the same for every completed
// refresh, swapping the served site only after its generation
// committed. verify audits a published directory and exits 0 (intact),
// 1 (corrupt or torn), or 3 (unreadable); torn generations from an
// interrupted publish are repaired automatically on the next build or
// serve start.
// -refresh-interval rebuilds the site from its sources in the
// background and swaps the result in atomically; a failed or degraded
// refresh keeps serving the last good build. -request-timeout bounds
// each dynamic page computation (504 past the deadline), and
// -max-inflight sheds excess concurrent requests with 503 instead of
// queueing them. The server shuts down gracefully on SIGINT/SIGTERM.
//
// A manifest is a line-oriented file (# comments allowed):
//
//	site      homepage
//	source    refs.bib   bibtex      refs.bib
//	mapping   map.struql
//	query     site.struql
//	template  RootPage   root.tpl
//	embedonly PaperPresentation
//	optimize
//	index     RootPage
//	roots     Roots
//	constraint reachable RootPage
//	constraint forbid patent
//
// Paths are relative to the manifest file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"strudel/internal/core"
	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/publish"
	"strudel/internal/resilience"
	"strudel/internal/schema"
	"strudel/internal/server"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "serve":
		err = cmdServe(args)
	case "stats":
		err = cmdStats(args)
	case "explain":
		err = cmdExplain(args)
	case "why":
		err = cmdWhy(args)
	case "verify":
		os.Exit(cmdVerify(args))
	case "top":
		err = cmdTop(args)
	case "history":
		err = cmdHistory(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "strudel:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  strudel build -manifest site.manifest -out dir/ [-trace] [-trace-out f.json] [-workers N]
                [-publish] [-keep N] [-ledger dir/]
  strudel serve -manifest site.manifest -addr :8080 [-dynamic] [-metrics] [-ops]
                [-hot-pages N] [-compress] [-access-log f|-] [-slo-target 250ms]
                [-refresh-interval 5m] [-request-timeout 10s] [-max-inflight 256]
                [-workers N] [-publish dir/] [-ledger dir/] [-freshness-target 2s]
  strudel stats -manifest site.manifest [-trace] [-trace-out f.json] [-workers N]
  strudel explain (-manifest site.manifest | -example cnn) [-json] [-optimize] [-workers N]
  strudel why (-manifest site.manifest | -example cnn) [-json] [-workers N] <page>
  strudel verify [-json] <dir>
  strudel top [-url http://127.0.0.1:8080] [-interval 2s] [-n 0] [-top 10]
  strudel history (-dir ledger/ | -url http://127.0.0.1:8080) [-json] [-follow] [-n 20]
                [-interval 2s]`)
}

// manifest is the parsed site description.
type manifest struct {
	name        string
	builder     *core.Builder
	rootColl    string
	constraints int
}

// loadManifest parses the manifest and populates a builder.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	m := &manifest{name: "site"}
	b := core.NewBuilder(m.name)
	m.builder = b
	readRel := func(p string) (string, error) {
		content, err := os.ReadFile(filepath.Join(dir, p))
		return string(content), err
	}
	for lineNum, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", path, lineNum+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "site":
			if len(fields) != 2 {
				return nil, errf("usage: site <name>")
			}
			m.name = fields[1]
			b.SetName(m.name)
		case "source":
			if len(fields) != 4 {
				return nil, errf("usage: source <name> <kind> <path>")
			}
			// Fail fast on an unreadable file, but register a fetch
			// function so every refresh re-reads it: -refresh-interval
			// picks up source changes, and a file that disappears
			// degrades to last-good data instead of freezing a stale
			// snapshot in silently.
			if _, err := readRel(fields[3]); err != nil {
				return nil, errf("%v", err)
			}
			srcPath := fields[3]
			if err := b.AddSourceFunc(fields[1], fields[2], func() (string, error) {
				return readRel(srcPath)
			}); err != nil {
				return nil, errf("%v", err)
			}
		case "mapping":
			if len(fields) != 2 {
				return nil, errf("usage: mapping <path>")
			}
			src, err := readRel(fields[1])
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := b.AddMapping(src); err != nil {
				return nil, errf("%v", err)
			}
		case "query":
			if len(fields) != 2 {
				return nil, errf("usage: query <path>")
			}
			src, err := readRel(fields[1])
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := b.AddQuery(src); err != nil {
				return nil, errf("%v", err)
			}
		case "template":
			if len(fields) != 3 {
				return nil, errf("usage: template <key> <path>")
			}
			src, err := readRel(fields[2])
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := b.AddTemplate(fields[1], src); err != nil {
				return nil, errf("%v", err)
			}
		case "embedonly":
			b.SetEmbedOnly(fields[1:]...)
		case "optimize":
			b.EnableOptimizer()
		case "index":
			if len(fields) != 2 {
				return nil, errf("usage: index <key>")
			}
			b.SetIndex(fields[1])
		case "roots":
			if len(fields) != 2 {
				return nil, errf("usage: roots <collection>")
			}
			m.rootColl = fields[1]
			b.SetRootCollection(fields[1])
		case "constraint":
			c, err := parseConstraint(strings.Join(fields[1:], " "))
			if err != nil {
				return nil, errf("%v", err)
			}
			b.AddConstraint(c)
			m.constraints++
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	return m, nil
}

func parseConstraint(s string) (schema.Constraint, error) {
	parts := strings.Fields(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty constraint")
	}
	switch parts[0] {
	case "reachable":
		if len(parts) != 2 {
			return nil, fmt.Errorf("usage: constraint reachable <RootFunc>")
		}
		return schema.Reachable{Root: parts[1]}, nil
	case "forbid":
		switch len(parts) {
		case 2:
			return schema.Forbid{Label: parts[1]}, nil
		case 3:
			return schema.Forbid{From: parts[1], Label: parts[2]}, nil
		}
		return nil, fmt.Errorf("usage: constraint forbid [From] <label>")
	case "mustlink":
		if len(parts) != 4 {
			return nil, fmt.Errorf("usage: constraint mustlink <From> <label> <To>")
		}
		return schema.MustLink{From: parts[1], Label: parts[2], To: parts[3]}, nil
	case "nopath":
		if len(parts) != 3 {
			return nil, fmt.Errorf("usage: constraint nopath <From> <To>")
		}
		return schema.NoPath{From: parts[1], To: parts[2]}, nil
	}
	return nil, fmt.Errorf("unknown constraint kind %q", parts[0])
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "site manifest file")
	out := fs.String("out", "site-out", "output directory")
	trace := fs.Bool("trace", false, "print the build's span timeline")
	traceOut := fs.String("trace-out", "", "write the build trace as Chrome trace-event JSON to this file")
	workers := fs.Int("workers", 0, "build parallelism (0 = one worker per CPU, 1 = sequential)")
	publishGen := fs.Bool("publish", false,
		"publish a crash-safe atomic generation under -out (gen-<n>/ + CURRENT) instead of writing pages flat")
	keep := fs.Int("keep", 2, "generations retained under -out with -publish")
	ledgerDir := fs.String("ledger", "",
		"append this build to the crash-safe build ledger under this directory (see `strudel history`)")
	fs.Parse(args)
	m, err := loadManifest(*manifestPath)
	if err != nil {
		return err
	}
	m.builder.SetWorkers(*workers)
	res, err := m.builder.Build()
	if err != nil {
		return err
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "warning:", v)
	}
	gen := 0
	if *publishGen {
		if err := recoverPublished(*out); err != nil {
			return err
		}
		gen, err = publish.New(fsx.OS, *out, *keep).PublishSite(res.Site, res.Trace.ID, time.Time{})
		if err != nil {
			return err
		}
		fmt.Printf("published %s generation %d: %d pages into %s (data %d/%d, site %d/%d nodes/edges)\n",
			m.name, gen, res.Stats.Pages, *out,
			res.Stats.DataNodes, res.Stats.DataEdges,
			res.Stats.SiteNodes, res.Stats.SiteEdges)
	} else {
		pruned, err := res.Site.SyncTo(*out)
		if err != nil {
			return err
		}
		fmt.Printf("built %s: %d pages into %s (data %d/%d, site %d/%d nodes/edges)\n",
			m.name, res.Stats.Pages, *out,
			res.Stats.DataNodes, res.Stats.DataEdges,
			res.Stats.SiteNodes, res.Stats.SiteEdges)
		if len(pruned) > 0 {
			fmt.Printf("pruned %d stale page(s) from %s\n", len(pruned), *out)
		}
	}
	if *ledgerDir != "" {
		led, err := ledger.Open(ledger.Options{Dir: *ledgerDir})
		if err != nil {
			return err
		}
		trigger := "manual"
		if *publishGen {
			trigger = "publish"
		}
		e := ledger.FromResult(res, trigger)
		e.Generation = gen
		if _, err := led.Append(e); err != nil {
			return err
		}
	}
	if *trace {
		fmt.Print(res.Trace.Summary())
	}
	return writeChromeTrace(res.Trace, *traceOut)
}

// recoverPublished cleans crash debris out of a published directory
// before the next publication. A directory that does not exist yet or
// holds no generation is fine — the next publish creates it.
func recoverPublished(dir string) error {
	_, err := publish.Recover(fsx.OS, dir)
	if err == nil || errors.Is(err, publish.ErrNoGeneration) || errors.Is(err, iofs.ErrNotExist) {
		return nil
	}
	return err
}

// cmdVerify checks a published directory's integrity. Exit codes are
// distinct so scripts can branch: 0 = intact, 1 = corruption or torn
// state detected, 2 = usage error, 3 = directory unreadable.
func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the integrity report as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: strudel verify [-json] <dir>")
		return 2
	}
	rep, err := publish.Verify(fsx.OS, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "strudel:", err)
		return 3
	}
	if *jsonOut {
		writeJSONIndent(os.Stdout, rep)
	} else {
		fmt.Print(rep.Summary())
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

// writeChromeTrace exports a build trace as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing); an empty path is a noop.
func writeChromeTrace(tr *telemetry.Trace, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote build trace %s to %s\n", tr.ID, path)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "site manifest file")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dynamic := fs.Bool("dynamic", false, "compute pages at click time instead of materializing")
	metrics := fs.Bool("metrics", false, "instrument serving and expose /metrics, /debug/vars, /debug/pprof")
	refreshInterval := fs.Duration("refresh-interval", 0,
		"rebuild the site from its sources this often (0 disables); a failed refresh keeps serving the last good build")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second,
		"render deadline per dynamic page computation (0 disables)")
	maxInflight := fs.Int("max-inflight", 256,
		"max concurrently served requests before shedding with 503 (0 disables)")
	workers := fs.Int("workers", 0, "build parallelism (0 = one worker per CPU, 1 = sequential)")
	accessLog := fs.String("access-log", "",
		"write one structured line per request to this file (\"-\" = stderr; empty disables)")
	sloTarget := fs.Duration("slo-target", 0,
		"latency SLO: requests slower than this (or failing) burn the error budget (objective 99% over 5m; 0 disables)")
	ops := fs.Bool("ops", false,
		"enable the live ops surface: per-page access accounting, sampled request tracing, /debug/ops")
	hotPages := fs.Int("hot-pages", 0,
		"materialize this many traffic-ranked pages at the serving edge (bytes and gzip resident; 0 disables)")
	compress := fs.Bool("compress", false,
		"precompress materialized pages and serve gzip to accepting clients")
	publishDir := fs.String("publish", "",
		"publish every build as a crash-safe atomic generation under this directory (static mode only)")
	keep := fs.Int("keep", 2, "generations retained under -publish")
	ledgerDir := fs.String("ledger", "",
		"persist the build ledger (refresh history, freshness stamps) as crash-safe JSONL segments under this directory; empty keeps it in memory only")
	freshnessTarget := fs.Duration("freshness-target", 0,
		"watchdog alert when a source change takes longer than this to become servable at the edge (0 disables)")
	fs.Parse(args)
	m, err := loadManifest(*manifestPath)
	if err != nil {
		return err
	}
	m.builder.SetWorkers(*workers)
	var pub *publish.Publisher
	if *publishDir != "" {
		if *dynamic {
			return fmt.Errorf("-publish requires static mode (pages are computed per click in -dynamic)")
		}
		// Clean up debris a previous crash may have left before the
		// first generation of this process is published.
		if err := recoverPublished(*publishDir); err != nil {
			return err
		}
		pub = publish.New(fsx.OS, *publishDir, *keep)
	}
	// One structured logger for the whole serving process: build,
	// refresh and request log lines share a schema and carry build /
	// request IDs for correlation. The server packages log through it
	// too.
	logg := telemetry.NewLogger(os.Stderr)
	server.SetLogger(logg)
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	opts := serveOptions{
		dynamic:         *dynamic,
		reg:             reg,
		renderTimeout:   *requestTimeout,
		maxInflight:     *maxInflight,
		sloTarget:       *sloTarget,
		ops:             *ops,
		hotPages:        *hotPages,
		compress:        *compress,
		pub:             pub,
		logg:            logg,
		ledgerDir:       *ledgerDir,
		freshnessTarget: *freshnessTarget,
	}
	var accessFile *os.File
	switch *accessLog {
	case "":
	case "-":
		opts.accessLog = os.Stderr
	default:
		accessFile, err = os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		defer accessFile.Close()
		opts.accessLog = accessFile
	}
	stop := make(chan struct{})
	opts.stop = stop
	handler, c, err := newServing(m, opts)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logg.Info("shutting down", "site", m.name)
		close(stop)
	}()
	if *refreshInterval > 0 {
		go c.run(*refreshInterval, stop)
	}
	logg.Info("serving", "site", m.name, "addr", *addr,
		"dynamic", *dynamic, "metrics", *metrics, "ops", *ops,
		"refresh", refreshInterval.String())
	return server.ServeUntil(server.NewServer(*addr, handler), stop, 5*time.Second)
}

// serveOptions tunes newServing. The zero value serves the site
// with no telemetry, matching the bare `strudel serve` invocation.
type serveOptions struct {
	// dynamic computes pages at click time instead of materializing.
	dynamic bool
	// reg, when non-nil, is exposed at /metrics with the full debug
	// surface (pprof, expvar, explain, provenance).
	reg *telemetry.Registry
	// renderTimeout bounds each dynamic page computation (0 disables).
	renderTimeout time.Duration
	// maxInflight sheds requests beyond this concurrency (0 disables).
	maxInflight int
	// accessLog, when non-nil, receives one structured line per request.
	accessLog io.Writer
	// sloTarget enables the latency SLO tracker (0 disables); the
	// objective is 99% over a 5-minute window.
	sloTarget time.Duration
	// ops enables the accounting table, sampled request tracing, the
	// runtime sampler and /debug/ops.
	ops bool
	// hotPages materializes this many traffic-ranked pages at the
	// serving edge (0 disables the hot/cold policy).
	hotPages int
	// compress serves precompressed gzip variants of materialized
	// pages to accepting clients.
	compress bool
	// pub, when non-nil, publishes every completed static build as an
	// atomic on-disk generation; serving swaps to a new build only
	// after its generation committed, so the served site always equals
	// the committed CURRENT generation.
	pub *publish.Publisher
	// stop, when non-nil, ends the runtime sampler loop on close.
	stop <-chan struct{}
	logg *slog.Logger
	// ledgerDir persists the build ledger as crash-safe JSONL segments
	// under this directory; "" keeps the ledger in memory only. The
	// ledger itself always exists — every refresh cycle is recorded.
	ledgerDir string
	// freshnessTarget makes the watchdog alert when a source change
	// takes longer than this to become servable at the edge (0
	// disables the propagation check).
	freshnessTarget time.Duration
}

// observability assembles the serving-plane observers the options ask
// for. The internal registry aggregates instrumentation even when
// /metrics is not exposed (-ops without -metrics).
func (o *serveOptions) observability(ireg *telemetry.Registry) (server.Observability, *server.Ops) {
	obs := server.Observability{Registry: ireg}
	if o.accessLog != nil {
		obs.AccessLog = telemetry.NewAccessLogger(o.accessLog)
	}
	if o.sloTarget > 0 {
		obs.SLO = telemetry.NewSLO(o.sloTarget, 0.99, 5*time.Minute, nil)
		obs.SLO.Instrument(ireg)
	}
	if o.ops || o.hotPages > 0 {
		// The edge's hot/cold policy ranks pages by this table, so it
		// exists whenever -hot-pages asks for materialization, not just
		// under -ops.
		obs.Accounting = server.NewAccounting(1024)
		obs.Accounting.Instrument(ireg)
	}
	if !o.ops {
		return obs, nil
	}
	obs.Tracer = telemetry.NewRequestTracer(16, 8)
	obs.Inflight = server.NewInflight()
	sampler := telemetry.NewRuntimeSampler(ireg)
	if o.stop != nil {
		go sampler.Run(o.stop, 10*time.Second)
	}
	return obs, &server.Ops{
		Accounting: obs.Accounting,
		SLO:        obs.SLO,
		Runtime:    sampler,
		Tracer:     obs.Tracer,
		Inflight:   obs.Inflight,
	}
}

// newServing builds the HTTP handler for a manifest — the edge over
// the materialized site or click-time evaluation, with /query for
// ad-hoc StruQL queries — plus the cycle that keeps it current, whose
// first step (the initial build) has run. The handler is hardened:
// panics in one request answer 500 without taking the process down,
// and beyond maxInflight concurrent requests new ones are shed with
// 503. With a non-nil registry the whole pipeline reports into it and
// the debug endpoints are mounted (outside the shedding chain, so
// /metrics stays reachable under overload), including /debug/explain
// and — in static mode — /debug/provenance, which re-run the queries
// over the served data on demand. /healthz and /readyz are
// always mounted: readiness follows the mediator's refresh state,
// flipping off only when a source failed with no last-good data.
func newServing(m *manifest, opts serveOptions) (http.Handler, *cycle, error) {
	reg, logg := opts.reg, opts.logg
	obsOn := opts.ops || opts.accessLog != nil || opts.sloTarget > 0 || opts.hotPages > 0
	// ireg backs instrumentation; it is the exposed registry when
	// -metrics is on, else an internal one (or nil with no observers).
	ireg := reg
	if ireg == nil && obsOn {
		ireg = telemetry.NewRegistry()
	}
	m.builder.SetTelemetry(ireg)
	if ireg != nil {
		telemetry.RegisterBuildInfo(ireg)
	}
	mode := "static"
	if opts.dynamic {
		mode = "dynamic"
	}
	// The build ledger records every refresh cycle — in memory always,
	// on disk (crash-safe JSONL segments) when -ledger names a
	// directory. The watchdog folds each entry into its EWMA and
	// raises gauges/log warnings on regressions.
	led, err := ledger.Open(ledger.Options{Dir: opts.ledgerDir})
	if err != nil {
		return nil, nil, err
	}
	wd := ledger.NewWatchdog(ledger.WatchdogConfig{
		PropagationTarget: opts.freshnessTarget,
		Logger:            logg,
	})
	if ireg != nil {
		led.Instrument(ireg)
		wd.Instrument(ireg)
	}
	// Observability is assembled before the edge so its hot/cold policy
	// can rank pages by the same accounting table the middleware feeds.
	var obs server.Observability
	var opsSurface *server.Ops
	if ireg != nil {
		obs, opsSurface = opts.observability(ireg)
	}
	c := newCycle(m, opts.dynamic, server.EdgeConfig{
		Mode:          mode,
		HotPages:      opts.hotPages,
		Compress:      opts.compress,
		Accounting:    obs.Accounting,
		Registry:      ireg,
		RenderTimeout: opts.renderTimeout,
	}, opts.pub, led, wd, resilience.Real, logg)
	if err := c.step("initial"); err != nil {
		return nil, nil, err
	}
	if opts.hotPages > 0 && opts.stop != nil {
		go c.edge.RunPolicy(opts.stop, 0)
	}

	mux := http.NewServeMux()
	mux.Handle("/", c.edge)
	var intro server.Introspector
	if opts.dynamic {
		// Ad-hoc queries run against the same data-graph snapshot the
		// click-time pages see.
		mux.Handle("/query", http.StripPrefix("/query", server.QueryHandlerFrom(
			func() *graph.Graph { return c.rend.Load().Dec.Input() }, m.builder.Registry(), 0)))
		// Explain profiles the full query over the renderer's current
		// data snapshot; click-time pages have no persistent provenance
		// records (pages are computed and discarded per request).
		intro.Explain = func() (any, error) {
			return m.builder.ExplainData(c.rend.Load().Dec.Input())
		}
	} else {
		mux.Handle("/query", http.StripPrefix("/query", server.QueryHandlerFrom(
			func() *graph.Graph { return c.res.Load().SiteGraph }, m.builder.Registry(), 0)))
		intro.Explain = func() (any, error) {
			return m.builder.ExplainData(c.res.Load().DataGraph)
		}
		intro.Provenance = func(page string) (any, bool, error) {
			prov, err := m.builder.Provenance(c.res.Load())
			if err != nil {
				return nil, false, err
			}
			pp, ok := prov.Page(page)
			return pp, ok, nil
		}
	}

	// Readiness follows the mediator: a refresh that hard-failed (a
	// source down with no last-good data to degrade to) flips /readyz
	// to 503 while /healthz — liveness — stays 200. Degraded-but-
	// serving-stale is still ready: the whole point of the resilience
	// layer is that stale pages beat no pages.
	ready := func() error {
		if rep := m.builder.LastRefresh(); rep != nil && rep.Failed() {
			return fmt.Errorf("refresh failed: %s", rep.Summary())
		}
		return nil
	}

	// Every served request carries the live build's ID into the access
	// log and sampled traces — the serving-plane half of the ledger's
	// cross-plane correlation.
	buildID := func() string { return c.served.Load().id }
	obs.BuildID = buildID
	if obs.Accounting != nil {
		obs.Accounting.SetFreshness(func() time.Time { return c.served.Load().builtAt })
		obs.Accounting.SetDataFreshness(func() time.Time { return c.served.Load().dataAsOf })
	}
	var h http.Handler = server.Shed(ireg, mode, opts.maxInflight, server.Recover(ireg, mode, mux))
	if ireg != nil {
		h = server.InstrumentObserved(obs, mode, h)
	}
	// The debug and health endpoints mount outside the instrumented
	// shedding chain, so /metrics, /readyz and /debug/ops stay
	// reachable (and unaccounted) under overload. With no telemetry at
	// all, the ledger view mounts only when it persists to disk (the
	// operator asked for build history explicitly).
	outer := http.NewServeMux()
	outer.Handle("/", h)
	server.AttachHealth(outer, server.Health{Ready: ready})
	if ireg != nil || opts.ledgerDir != "" {
		outer.Handle("/debug/ledger", led.Handler(wd))
	}
	if reg != nil {
		server.AttachDebug(outer, reg)
		server.AttachIntrospection(outer, intro)
	}
	if opsSurface != nil {
		opsSurface.Mode = mode
		opsSurface.Ready = ready
		opsSurface.BuildID = buildID
		opsSurface.Edge = c.edge
		opsSurface.LastBuild = func() any {
			if e, ok := led.Last(); ok {
				return e
			}
			return nil
		}
		server.AttachOps(outer, opsSurface)
	}
	return outer, c, nil
}

// cycle is the one refresh sequence of `strudel serve`, in both
// serving modes; the initial build is simply its first step. A step
// rebuilds from the sources and swaps the result into the edge — the
// only mode-specific half — then records itself once on every plane
// that observes it: the ledger and its watchdog, the freshness stamp,
// the edge's build info, and the served build.
type cycle struct {
	b     *core.Builder
	site  string
	edge  *server.Edge
	pub   *publish.Publisher // nil: no publication
	led   *ledger.Ledger
	wd    *ledger.Watchdog
	clock resilience.Clock
	logg  *slog.Logger
	swap  func(trigger string, t0 time.Time) (swapped, error)

	// The live snapshot: a build result in static mode, a click-time
	// renderer in dynamic mode. Only step writes them.
	res    atomic.Pointer[core.Result]
	rend   atomic.Pointer[incremental.Renderer]
	served atomic.Pointer[servedBuild]
}

// servedBuild names the build the edge answers from, when it was
// built or re-validated, and when its data was last observed at the
// sources — the inputs of per-page staleness. step replaces it whole.
type servedBuild struct {
	id                string
	builtAt, dataAsOf time.Time
}

// swapped is what a mode's rebuild-and-swap half hands back to step.
type swapped struct {
	entry      ledger.Entry
	changed    bool // the served content changed
	builtAt    time.Time
	violations []error
}

// newCycle wires a site's refresh cycle and the edge it serves. pub
// and led bring the filesystem; clock stamps each step and paces run.
func newCycle(m *manifest, dynamic bool, cfg server.EdgeConfig, pub *publish.Publisher,
	led *ledger.Ledger, wd *ledger.Watchdog, clock resilience.Clock, logg *slog.Logger) *cycle {
	c := &cycle{b: m.builder, site: m.name, pub: pub, led: led, wd: wd, clock: clock, logg: logg}
	if dynamic {
		c.edge = server.DynamicEdge(c.rend.Load, m.rootColl, cfg)
		c.swap = c.swapDynamic
	} else {
		c.edge = server.NewEdge(nil, cfg)
		c.swap = c.swapStatic
	}
	return c
}

// step runs one refresh cycle; trigger ("initial", "interval") labels
// its ledger entry. A failed step records the failure and keeps the
// edge on the last good snapshot.
func (c *cycle) step(trigger string) error {
	t0 := c.clock.Now()
	s, err := c.swap(trigger, t0)
	if err != nil {
		if s.entry.BuildID == "" {
			s.entry = ledger.Entry{BuildID: telemetry.NewID("build"), Site: c.site,
				Trigger: trigger, Mode: "failed", Err: err.Error()}
		}
		c.record(s.entry)
		return err
	}
	// The new ETags are servable from this instant: the edge answers
	// from the swapped snapshot.
	servable := c.clock.Now()
	rep := c.b.LastRefresh()
	if rep != nil && !rep.Ok() {
		c.logg.Warn("refresh degraded", "summary", rep.Summary())
	}
	if s.changed {
		for _, v := range s.violations {
			c.logg.Warn("constraint violation", "build_id", s.entry.BuildID, "violation", fmt.Sprint(v))
		}
		if trigger != "initial" {
			// observed is the freshness anchor: when the source change
			// entered the pipeline (the mediator's refresh stamp), not
			// when the rebuild ended. The initial build brings the site
			// up rather than propagating a change into it.
			observed := t0
			if rep != nil && !rep.At.IsZero() {
				observed = rep.At
			}
			s.entry.StampFreshness(observed, servable)
		}
	}
	c.record(s.entry)
	c.edge.NoteBuild(s.entry.BuildID)
	c.served.Store(&servedBuild{id: s.entry.BuildID, builtAt: s.builtAt, dataAsOf: dataStamp(rep, t0)})
	return nil
}

// swapStatic rebuilds the materialized site incrementally and, when it
// changed, publishes it and then swaps it into the edge: the edge only
// moves to a new build once that build is the committed CURRENT
// generation on disk. Hot pages whose ETag survived keep their
// resident bytes; invalidated ones re-materialize from the new site.
func (c *cycle) swapStatic(trigger string, _ time.Time) (swapped, error) {
	prev := c.res.Load()
	next, err := c.b.Rebuild(prev)
	if err != nil {
		return swapped{}, err
	}
	s := swapped{
		entry:      ledger.FromResult(next, trigger),
		changed:    next.Incremental == nil || next.Incremental.Mode != "noop",
		builtAt:    next.BuiltAt,
		violations: next.Violations,
	}
	if s.changed && c.pub != nil {
		gen, err := c.pub.PublishSite(next.Site, next.Trace.ID, time.Time{})
		if err != nil {
			s.entry.Err = "publish: " + err.Error()
			return s, fmt.Errorf("publish failed: %w", err)
		}
		s.entry.Generation = gen
		c.logg.Info("published", "build_id", next.Trace.ID, "generation", gen, "dir", c.pub.Dir())
	}
	if info := next.Incremental; s.changed && info != nil {
		c.logg.Info("rebuilt", "build_id", next.Trace.ID, "mode", info.Mode, "summary", info.Summary())
	}
	c.res.Store(next)
	if s.changed {
		c.edge.SetSource(server.NewSiteSource(next.Site))
	}
	return s, nil
}

// swapDynamic refreshes the click-time renderer, which adopts cached
// pages of classes the data delta cannot affect. A new renderer means
// the data changed, so the edge drops its resident bytes. Click-time
// rendering has no core.Result: the step gets a fresh build ID and a
// ledger entry carrying the mediator's per-source outcomes.
func (c *cycle) swapDynamic(trigger string, t0 time.Time) (swapped, error) {
	prev := c.rend.Load()
	r, err := c.b.RebuildDynamic(prev)
	if err != nil {
		return swapped{}, err
	}
	s := swapped{changed: r != prev, builtAt: r.BuiltAt}
	s.entry = ledger.Entry{BuildID: telemetry.NewID("build"), Site: c.site, Trigger: trigger,
		Mode: "dynamic", TotalMs: float64(c.clock.Now().Sub(t0)) / float64(time.Millisecond)}
	if rep := c.b.LastRefresh(); rep != nil {
		s.entry.Sources = ledger.SourceRecords(rep)
		s.entry.Data = ledger.DeltaSizeOf(rep.Warehouse)
	}
	if !s.changed {
		s.entry.Mode = "noop"
		return s, nil
	}
	c.rend.Store(r)
	c.edge.FlushHot()
	return s, nil
}

// record appends a step's entry to the build ledger and feeds the
// watchdog.
func (c *cycle) record(e ledger.Entry) {
	if _, err := c.led.Append(e); err != nil {
		c.logg.Warn("build ledger append failed", "err", err)
	}
	c.wd.Observe(e)
}

// run steps the cycle every interval until stop closes. A failed step
// backs off exponentially, capped at 10× the interval, so a broken
// source set is not hammered; the edge keeps answering from the last
// good snapshot throughout.
func (c *cycle) run(interval time.Duration, stop <-chan struct{}) {
	delay := interval
	for {
		select {
		case <-stop:
			return
		case <-c.clock.After(delay):
		}
		if err := c.step("interval"); err != nil {
			c.logg.Error("refresh failed, serving stale data", "err", err)
			delay = min(delay*2, 10*interval)
		} else {
			delay = interval
		}
	}
}

// dataStamp is the "data as of" provenance stamp for a refresh: the
// report time when every source answered fresh, pulled back to the
// oldest StaleSince when a source is serving last-good data — the
// served data is only as current as its stalest source. fallback
// covers refresh-less builds (fixed data graphs).
func dataStamp(rep *mediator.RefreshReport, fallback time.Time) time.Time {
	if rep == nil || rep.At.IsZero() {
		return fallback
	}
	stamp := rep.At
	for _, s := range rep.Sources {
		if s.State != mediator.Fresh && !s.StaleSince.IsZero() && s.StaleSince.Before(stamp) {
			stamp = s.StaleSince
		}
	}
	return stamp
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "site manifest file")
	trace := fs.Bool("trace", false, "print the build's span timeline")
	traceOut := fs.String("trace-out", "", "write the build trace as Chrome trace-event JSON to this file")
	workers := fs.Int("workers", 0, "build parallelism (0 = one worker per CPU, 1 = sequential)")
	fs.Parse(args)
	m, err := loadManifest(*manifestPath)
	if err != nil {
		return err
	}
	m.builder.SetWorkers(*workers)
	res, err := m.builder.Build()
	if err != nil {
		return err
	}
	fmt.Printf("site %s\n", m.name)
	fmt.Printf("  data graph:  %d nodes, %d edges\n", res.Stats.DataNodes, res.Stats.DataEdges)
	fmt.Printf("  site graph:  %d nodes, %d edges\n", res.Stats.SiteNodes, res.Stats.SiteEdges)
	fmt.Printf("  pages:       %d\n", res.Stats.Pages)
	fmt.Printf("  bindings:    %d\n", res.Stats.Bindings)
	fmt.Printf("  constraints: %d checked, %d violated\n", m.constraints, len(res.Violations))
	fmt.Printf("  timings:     mediate %v, query %v, verify %v, generate %v (total %v)\n",
		res.Stats.MediationTime, res.Stats.QueryTime, res.Stats.VerifyTime,
		res.Stats.GenerateTime, res.Stats.TotalTime)
	if *trace {
		fmt.Printf("build trace:\n%s", res.Trace.Summary())
	}
	fmt.Print(res.Schema.String())
	return writeChromeTrace(res.Trace, *traceOut)
}

// introspectionBuilder resolves the -manifest / -example pair shared
// by the explain and why verbs: exactly one of the two selects the
// site to introspect.
func introspectionBuilder(manifestPath, example string) (*core.Builder, string, error) {
	switch {
	case manifestPath != "" && example != "":
		return nil, "", fmt.Errorf("-manifest and -example are mutually exclusive")
	case manifestPath != "":
		m, err := loadManifest(manifestPath)
		if err != nil {
			return nil, "", err
		}
		return m.builder, m.name, nil
	case example != "":
		b, err := exampleBuilder(example)
		if err != nil {
			return nil, "", err
		}
		return b, example, nil
	}
	return nil, "", fmt.Errorf("need -manifest or -example")
}

// exampleBuilder populates a builder with one of the built-in workload
// sites, so explain and why can be tried without writing a manifest.
// The sites mirror the examples/ programs: cnn and cnn-sports share
// one ~300-article database (paper Sec. 5.1), homepage is the
// bibliography site, org mediates the five organization sources.
func exampleBuilder(name string) (*core.Builder, error) {
	applySpec := func(b *core.Builder, spec *workload.SiteSpec) error {
		if err := b.AddQuery(spec.Query); err != nil {
			return err
		}
		b.AddTemplates(spec.Templates)
		b.SetIndex(spec.Index)
		var embed []string
		for key := range spec.EmbedOnly {
			embed = append(embed, key)
		}
		sort.Strings(embed)
		b.SetEmbedOnly(embed...)
		b.SetRootCollection(spec.RootCollection)
		return nil
	}
	switch name {
	case "cnn", "cnn-sports":
		spec := workload.ArticleSpec(name == "cnn-sports")
		b := core.NewBuilder(spec.Name)
		b.SetDataGraph(workload.Articles(300, 1997))
		return b, applySpec(b, spec)
	case "homepage":
		spec := workload.BibliographySpec()
		b := core.NewBuilder(spec.Name)
		b.SetDataGraph(workload.Bibliography(60, 1997))
		return b, applySpec(b, spec)
	case "org":
		spec := workload.OrgSpec(false)
		b := core.NewBuilder(spec.Name)
		src := workload.Organization(120, 25, 6, 7)
		sources := []struct{ name, kind, content string }{
			{"people.csv", "csv", src.PeopleCSV},
			{"departments.csv", "csv", src.DepartmentsCSV},
			{"projects.txt", "structured", src.ProjectsTxt},
			{"refs.bib", "bibtex", src.BibTeX},
		}
		var pageNames []string
		for n := range src.HTMLPages {
			pageNames = append(pageNames, n)
		}
		sort.Strings(pageNames)
		for _, n := range pageNames {
			sources = append(sources, struct{ name, kind, content string }{n, "html", src.HTMLPages[n]})
		}
		for _, s := range sources {
			if err := b.AddSource(s.name, s.kind, s.content); err != nil {
				return nil, err
			}
		}
		return b, applySpec(b, spec)
	}
	return nil, fmt.Errorf("unknown example %q (want cnn, cnn-sports, homepage, org)", name)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "site manifest file")
	example := fs.String("example", "", "built-in example site (cnn, cnn-sports, homepage, org) instead of a manifest")
	jsonOut := fs.Bool("json", false, "emit the explain report as JSON")
	optimize := fs.Bool("optimize", false, "plan with the cost-based optimizer (manifests may also say `optimize`)")
	workers := fs.Int("workers", 0, "build parallelism (0 = one worker per CPU, 1 = sequential)")
	fs.Parse(args)
	b, _, err := introspectionBuilder(*manifestPath, *example)
	if err != nil {
		return err
	}
	b.SetWorkers(*workers)
	if *optimize {
		b.EnableOptimizer()
	}
	ex, err := b.Explain()
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSONIndent(os.Stdout, ex)
	}
	ex.WriteText(os.Stdout)
	return nil
}

func cmdWhy(args []string) error {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "site manifest file")
	example := fs.String("example", "", "built-in example site (cnn, cnn-sports, homepage, org) instead of a manifest")
	jsonOut := fs.Bool("json", false, "emit the provenance record as JSON")
	workers := fs.Int("workers", 0, "build parallelism (0 = one worker per CPU, 1 = sequential)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: strudel why (-manifest site.manifest | -example cnn) <page>")
	}
	page := fs.Arg(0)
	b, site, err := introspectionBuilder(*manifestPath, *example)
	if err != nil {
		return err
	}
	b.SetWorkers(*workers)
	res, err := b.Build()
	if err != nil {
		return err
	}
	prov, err := b.Provenance(res)
	if err != nil {
		return err
	}
	pp, ok := prov.Page(page)
	if !ok {
		paths := res.Site.Paths()
		hint := ""
		if len(paths) > 0 {
			n := min(len(paths), 5)
			hint = fmt.Sprintf(" (site has %d pages, e.g. %s)", len(paths), strings.Join(paths[:n], ", "))
		}
		return fmt.Errorf("no page %q in site %s%s", page, site, hint)
	}
	if *jsonOut {
		return writeJSONIndent(os.Stdout, pp)
	}
	pp.WriteText(os.Stdout)
	return nil
}

func writeJSONIndent(w *os.File, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
