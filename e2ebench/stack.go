package main

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/core"
	"strudel/internal/incremental"
	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/publish"
	"strudel/internal/resilience"
	"strudel/internal/server"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
)

// policyClock drives the edge's hot-set policy (residency dwell,
// Rerank) from a fake clock the harness advances at fixed request
// counts, while render deadlines keep running on the wall clock as
// they do in `strudel serve`.
type policyClock struct{ *resilience.FakeClock }

func (policyClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// fetchStats accumulates what the source fetch callbacks did during
// one refresh. The mediator calls them one at a time.
type fetchStats struct {
	mu     sync.Mutex
	dur    time.Duration
	bytes  int
	parent int // span the fetch spans hang under
}

// stack is one serving process wired the way `strudel serve -ops
// -hot-pages 64 -compress [-dynamic] [-publish dir -ledger dir]` wires
// it in cmd/strudel (serveHandler), with the refresh loop replaced by
// direct calls so every run issues the same operations.
type stack struct {
	w      *workloadDef
	c      *corpus
	tr     *tracer
	b      *core.Builder
	query  *struql.Query
	ireg   *telemetry.Registry
	led    *ledger.Ledger
	wd     *ledger.Watchdog
	pub    *publish.Publisher
	mem    *memFS // holds the publish and ledger directories
	pubFS  *countFS
	ledFS  *countFS
	clock  *resilience.FakeClock
	edge   *server.Edge
	h      http.Handler
	fetch  fetchStats
	client *client

	cur      atomic.Pointer[core.Result]          // static mode
	dyn      atomic.Pointer[incremental.Renderer] // dynamic mode
	curBuild atomic.Value                         // string
	builtAt  atomic.Int64
	dataAsOf atomic.Int64
}

func (s *stack) mode() string {
	if s.w.dynamic {
		return "dynamic"
	}
	return "static"
}

// fetchFunc is a source's fetch callback: the file read `strudel
// serve` does for a manifest `source` line, timed and counted.
func (s *stack) fetchFunc(path string) func() (string, error) {
	return func() (string, error) {
		t0 := time.Now()
		data, err := os.ReadFile(path)
		t1 := time.Now()
		s.fetch.mu.Lock()
		s.fetch.dur += t1.Sub(t0)
		s.fetch.bytes += len(data)
		parent := s.fetch.parent
		s.fetch.mu.Unlock()
		s.tr.add("fetch", t0, t1, parent)
		return string(data), err
	}
}

// resetFetch starts a refresh's fetch accounting under span parent.
func (s *stack) resetFetch(parent int) {
	s.fetch.mu.Lock()
	s.fetch.dur, s.fetch.bytes, s.fetch.parent = 0, 0, parent
	s.fetch.mu.Unlock()
}

func (s *stack) fetched() (time.Duration, int) {
	s.fetch.mu.Lock()
	defer s.fetch.mu.Unlock()
	return s.fetch.dur, s.fetch.bytes
}

// newStack sets up a serving process over the corpus's source files,
// with its publish and ledger directories under dir in an in-memory
// filesystem: a fresh builder, the initial build, publish, ledger
// entry and edge, up to the first 200 for "/". It returns the set-up
// time.
func newStack(w *workloadDef, c *corpus, dir string) (*stack, time.Duration, error) {
	mem := newMemFS()
	s := &stack{w: w, c: c, mem: mem, pubFS: &countFS{FS: mem}, ledFS: &countFS{FS: mem},
		clock: resilience.NewFakeClock(time.Unix(0, 0))}
	s.curBuild.Store("")
	query, err := struql.Parse(w.spec.Query)
	if err != nil {
		return nil, 0, err
	}
	s.query = query

	t0 := time.Now()
	b := core.NewBuilder(w.spec.Name)
	s.b = b
	for f := range c.files {
		if err := b.AddSourceFunc(c.fileName(f), "bibtex", s.fetchFunc(c.path(f))); err != nil {
			return nil, 0, err
		}
	}
	if err := b.AddQuery(w.spec.Query); err != nil {
		return nil, 0, err
	}
	b.AddTemplates(w.spec.Templates)
	b.SetIndex(w.spec.Index)
	var embed []string
	for key := range w.spec.EmbedOnly {
		embed = append(embed, key)
	}
	sort.Strings(embed)
	b.SetEmbedOnly(embed...)
	b.SetRootCollection(w.spec.RootCollection)
	for _, con := range w.constraints() {
		b.AddConstraint(con)
	}

	s.ireg = telemetry.NewRegistry()
	b.SetTelemetry(s.ireg)
	telemetry.RegisterBuildInfo(s.ireg)
	ledgerDir := ""
	if w.publish {
		ledgerDir = filepath.Join(dir, "ledger")
		pubDir := filepath.Join(dir, "published")
		if _, err := publish.Recover(s.pubFS, pubDir); err != nil &&
			!errors.Is(err, publish.ErrNoGeneration) && !errors.Is(err, iofs.ErrNotExist) {
			return nil, 0, err
		}
		s.pub = publish.New(s.pubFS, pubDir, 2)
	}
	s.led, err = ledger.Open(ledger.Options{FS: s.ledFS, Dir: ledgerDir})
	if err != nil {
		return nil, 0, err
	}
	s.wd = ledger.NewWatchdog(ledger.WatchdogConfig{Logger: quietLogger})
	s.led.Instrument(s.ireg)
	s.wd.Instrument(s.ireg)

	acct := server.NewAccounting(1024)
	acct.Instrument(s.ireg)
	obs := server.Observability{
		Registry:   s.ireg,
		Accounting: acct,
		Tracer:     telemetry.NewRequestTracer(16, 8),
		Inflight:   server.NewInflight(),
		BuildID:    s.buildID,
	}
	edgeCfg := server.EdgeConfig{
		Mode:          s.mode(),
		HotPages:      hotPages,
		Compress:      true,
		Accounting:    acct,
		Registry:      s.ireg,
		RenderTimeout: 10 * time.Second,
		Clock:         policyClock{s.clock},
	}
	mux := http.NewServeMux()
	if w.dynamic {
		err = s.initDynamic(mux, edgeCfg)
	} else {
		err = s.initStatic(mux, edgeCfg)
	}
	if err != nil {
		return nil, 0, err
	}
	acct.SetFreshness(func() time.Time { return time.Unix(0, s.builtAt.Load()) })
	acct.SetDataFreshness(func() time.Time { return time.Unix(0, s.dataAsOf.Load()) })
	// The request path of the CLI's handler: its outer mux, the
	// observability middleware, shedding, recovery, its inner mux and the
	// edge. The CLI's debug, health and query endpoints are left out; no
	// request of the benchmark reaches them.
	inner := server.Shed(s.ireg, s.mode(), maxInflight, server.Recover(s.ireg, s.mode(), mux))
	outer := http.NewServeMux()
	outer.Handle("/", server.InstrumentObserved(obs, s.mode(), inner))
	s.h = outer
	s.client = newClient(s)
	resp := s.client.do("/", "")
	setup := time.Since(t0)
	if resp.status != http.StatusOK {
		return nil, 0, fmt.Errorf("first GET / answered %d", resp.status)
	}
	s.client.check("/", resp)
	return s, setup, nil
}

func (s *stack) buildID() string { v, _ := s.curBuild.Load().(string); return v }

// record appends a cycle to the ledger and feeds the watchdog, as the
// CLI's refresh loop does for every cycle.
func (s *stack) record(e ledger.Entry) error {
	if _, err := s.led.Append(e); err != nil {
		return fmt.Errorf("ledger append: %w", err)
	}
	s.wd.Observe(e)
	return nil
}

func (s *stack) initStatic(mux *http.ServeMux, cfg server.EdgeConfig) error {
	res, err := s.b.Build()
	if err != nil {
		return err
	}
	gen := 0
	if s.pub != nil {
		if gen, err = s.pub.PublishSite(res.Site, res.Trace.ID, time.Time{}); err != nil {
			return fmt.Errorf("publishing initial build: %w", err)
		}
	}
	s.cur.Store(res)
	s.builtAt.Store(res.BuiltAt.UnixNano())
	s.curBuild.Store(res.Trace.ID)
	s.dataAsOf.Store(res.BuiltAt.UnixNano())
	e := ledger.FromResult(res, "initial")
	e.Generation = gen
	if err := s.record(e); err != nil {
		return err
	}
	s.edge = server.NewEdge(server.NewSiteSource(res.Site), cfg)
	s.edge.NoteBuild(res.Trace.ID)
	mux.Handle("/", s.edge)
	return nil
}

func (s *stack) initDynamic(mux *http.ServeMux, cfg server.EdgeConfig) error {
	r, err := s.b.BuildDynamic()
	if err != nil {
		return err
	}
	s.dyn.Store(r)
	s.builtAt.Store(r.BuiltAt.UnixNano())
	s.dataAsOf.Store(r.BuiltAt.UnixNano())
	id := telemetry.NewID("build")
	s.curBuild.Store(id)
	if err := s.record(s.dynEntry(id, "initial", 0)); err != nil {
		return err
	}
	s.edge = server.DynamicEdge(s.dyn.Load, s.w.spec.RootCollection, cfg)
	s.edge.NoteBuild(id)
	mux.Handle("/", s.edge)
	return nil
}

// dynEntry is the CLI's minimal ledger entry for a click-time cycle.
func (s *stack) dynEntry(id, trigger string, totalMs float64) ledger.Entry {
	e := ledger.Entry{BuildID: id, Site: s.w.spec.Name, Trigger: trigger, Mode: "dynamic", TotalMs: totalMs}
	if rep := s.b.LastRefresh(); rep != nil {
		e.Sources = ledger.SourceRecords(rep)
		e.Data = ledger.DeltaSizeOf(rep.Warehouse)
	}
	return e
}

// cycleStats is what one refresh cycle's layers did, measured from
// outside: timed calls, the build's returned Stats and trace, the
// mediator's report, the counting filesystems and the edge counters.
type cycleStats struct {
	changed        bool
	fetch          time.Duration
	fetchBytes     int
	mediator       time.Duration // refresh start to the build trace's root, minus fetch
	query, verify  time.Duration
	generate, diff time.Duration
	bindings       int
	rendered       int
	invalidated    []string
	allocBytes     uint64
	sourcesChanged float64
	deltaObjects   int
	rebuildDynamic time.Duration
	cacheKept      int
	publish        time.Duration
	pubIO, ledIO   fsCounts
	ledger         time.Duration
	swap, flush    time.Duration
	rematerialized uint64
	hotDropped     uint64
}

// refresh runs one refresh cycle the way serveHandler's refresh
// closure does: rebuild, publish when changed, swap the edge, record
// the cycle in the ledger. op is the enclosing span.
func (s *stack) refresh(op int) (*cycleStats, error) {
	if s.w.dynamic {
		return s.refreshDynamic(op)
	}
	return s.refreshStatic(op)
}

func (s *stack) refreshStatic(op int) (*cycleStats, error) {
	cs := &cycleStats{}
	prev := s.cur.Load()
	t0 := time.Now()
	rsp := s.tr.begin("refresh", op)
	med := s.tr.begin("mediator", rsp)
	s.resetFetch(med)
	a0 := telemetry.AllocBytes()
	next, err := s.b.Rebuild(prev)
	cs.allocBytes = telemetry.AllocBytes() - a0
	s.tr.end(rsp)
	if err != nil {
		return nil, err
	}
	cs.fetch, cs.fetchBytes = s.fetched()
	root := next.Trace.Root()
	s.tr.setEnd(med, root.Start())
	cs.mediator = root.Start().Sub(t0) - cs.fetch
	graftBuild(s.tr, next, rsp)
	st := next.Stats
	cs.query, cs.verify, cs.generate = st.QueryTime, st.VerifyTime, st.GenerateTime
	cs.diff = st.TotalTime - st.QueryTime - st.VerifyTime - st.GenerateTime
	cs.bindings = st.Bindings
	s.mediationReport(cs, next.Refresh)
	observed := t0
	if rep := next.Refresh; rep != nil && !rep.At.IsZero() {
		observed = rep.At
	}
	cs.changed = next.Incremental == nil || next.Incremental.Mode != "noop"
	if info := next.Incremental; info != nil {
		if info.Site != nil {
			cs.rendered = info.Site.Rendered
		}
		cs.invalidated = info.Invalidated
	}
	gen := 0
	if s.pub != nil && cs.changed {
		before := s.pubFS.n
		sp := s.tr.begin("publish", op)
		p0 := time.Now()
		gen, err = s.pub.PublishSite(next.Site, next.Trace.ID, time.Time{})
		cs.publish = time.Since(p0)
		s.tr.end(sp)
		cs.pubIO = s.pubFS.n.sub(before)
		if err != nil {
			return nil, fmt.Errorf("publish: %w", err)
		}
	}
	s.cur.Store(next)
	if cs.changed {
		remat := s.edge.Stats().Rematerializations
		sp := s.tr.begin("server.swap", op)
		w0 := time.Now()
		s.edge.SetSource(server.NewSiteSource(next.Site))
		s.edge.NoteBuild(next.Trace.ID)
		cs.swap = time.Since(w0)
		s.tr.end(sp)
		cs.rematerialized = s.edge.Stats().Rematerializations - remat
	}
	servable := time.Now()
	before := s.ledFS.n
	sp := s.tr.begin("ledger", op)
	e := ledger.FromResult(next, "interval")
	e.Generation = gen
	if cs.changed {
		e.StampFreshness(observed, servable)
	}
	err = s.record(e)
	cs.ledger = time.Since(servable)
	s.tr.end(sp)
	cs.ledIO = s.ledFS.n.sub(before)
	if err != nil {
		return nil, err
	}
	s.curBuild.Store(next.Trace.ID)
	s.dataAsOf.Store(observed.UnixNano())
	s.builtAt.Store(next.BuiltAt.UnixNano())
	return cs, nil
}

func (s *stack) refreshDynamic(op int) (*cycleStats, error) {
	cs := &cycleStats{}
	prev := s.dyn.Load()
	t0 := time.Now()
	rsp := s.tr.begin("core.rebuild_dynamic", op)
	s.resetFetch(rsp)
	a0 := telemetry.AllocBytes()
	r, err := s.b.RebuildDynamic(prev)
	cs.allocBytes = telemetry.AllocBytes() - a0
	cs.rebuildDynamic = time.Since(t0)
	s.tr.end(rsp)
	if err != nil {
		return nil, err
	}
	cs.fetch, cs.fetchBytes = s.fetched()
	s.mediationReport(cs, s.b.LastRefresh())
	id := telemetry.NewID("build")
	cs.changed = r != prev
	var observed time.Time
	if cs.changed {
		cs.cacheKept = len(r.Dec.CachedKeys())
		s.dyn.Store(r)
		demoted := s.edge.Stats().Demotions
		sp := s.tr.begin("server.flush", op)
		f0 := time.Now()
		s.edge.FlushHot()
		cs.flush = time.Since(f0)
		s.tr.end(sp)
		cs.hotDropped = s.edge.Stats().Demotions - demoted
		sp = s.tr.begin("server.swap", op)
		w0 := time.Now()
		s.edge.NoteBuild(id)
		cs.swap = time.Since(w0)
		s.tr.end(sp)
		observed = t0
		if rep := s.b.LastRefresh(); rep != nil && !rep.At.IsZero() {
			observed = rep.At
		}
		s.dataAsOf.Store(observed.UnixNano())
	}
	servable := time.Now()
	before := s.ledFS.n
	sp := s.tr.begin("ledger", op)
	e := s.dynEntry(id, "interval", ms(servable.Sub(t0)))
	if cs.changed {
		e.StampFreshness(observed, servable)
	} else {
		e.Mode = "noop"
	}
	err = s.record(e)
	cs.ledger = time.Since(servable)
	s.tr.end(sp)
	cs.ledIO = s.ledFS.n.sub(before)
	s.curBuild.Store(id)
	s.builtAt.Store(r.BuiltAt.UnixNano())
	return cs, err
}

// mediationReport reads the mediator's per-source and warehouse
// deltas off the refresh report.
func (s *stack) mediationReport(cs *cycleStats, r *mediator.RefreshReport) {
	if r == nil || len(r.Sources) == 0 {
		return
	}
	changed := 0
	for _, src := range r.Sources {
		if !src.Delta.Empty() {
			changed++
		}
	}
	cs.sourcesChanged = float64(changed) / float64(len(r.Sources))
	if d := r.Warehouse; d != nil {
		cs.deltaObjects = len(d.AddedObjects) + len(d.RemovedObjects) + len(d.ChangedObjects)
	}
}

// graftBuild copies the query, verify and generate phases of a
// build's own trace under the refresh span, and the build's root as
// core.rebuild: its self time is what Stats leaves to schema.Analyze,
// the site-graph diff and the invalidated-path scan.
func graftBuild(tr *tracer, res *core.Result, parent int) {
	if tr == nil || res.Trace == nil {
		return
	}
	root := res.Trace.Root()
	rid := tr.add("core.rebuild", root.Start(), root.Start().Add(root.Duration()), parent)
	names := map[string]string{"query": "struql", "verify": "schema.verify", "generate": "sitegen"}
	for _, ch := range root.Children() {
		if name, ok := names[ch.Name]; ok {
			tr.add(name, ch.Start(), ch.Start().Add(ch.Duration()), rid)
		}
	}
}

var quietLogger = telemetry.NewLogger(io.Discard)
