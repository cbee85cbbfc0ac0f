// Package mediator implements STRUDEL's mediation layer (paper
// Sec. 2.3): a uniform, integrated view of all underlying data,
// irrespective of where it is stored. Following the paper's prototype
// it takes the warehousing approach to data integration — sources are
// wrapped into graphs and the result of integration is stored in the
// repository — and the global-as-view (GAV) approach to schema
// mapping: the relationship between the mediated view and the sources
// is given by StruQL queries, one or more per source, whose outputs
// build the warehouse graph. Sources without mapping queries are
// merged verbatim (object names preserved), which suits sources
// already shaped like the mediated view.
//
// A refresh costs what changed: a source whose fetched bytes hash the
// same as its last-good copy's is not re-wrapped, a refresh in which
// no source was re-wrapped keeps the committed warehouse, and without
// GAV mappings the warehouse delta re-diffs only the objects the
// re-wrapped sources' deltas reach.
package mediator

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"strudel/internal/graph"
	"strudel/internal/repository"
	"strudel/internal/resilience"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
	"strudel/internal/wrapper"
)

// SourceMode selects how a source reaches the warehouse.
type SourceMode int

const (
	// Merge copies the wrapped source graph into the warehouse
	// verbatim, preserving object identity and names.
	Merge SourceMode = iota
	// Mapped keeps the source graph out of the warehouse; only GAV
	// mapping queries over it contribute.
	Mapped
)

// Source is one external data source.
type Source struct {
	Name    string
	Wrapper wrapper.Wrapper
	Mode    SourceMode
	// Fetch returns the current source text; called on every Refresh
	// so changing source data is picked up (the paper: "the data in
	// the sources may change frequently").
	Fetch func() (string, error)
}

// goodCopy is a source's last successfully wrapped graph and the
// SHA-256 of the bytes it was wrapped from, committed together.
type goodCopy struct {
	g   *graph.Graph
	sum [sha256.Size]byte
}

// sumString is the SHA-256 of s, hashed through a small buffer rather
// than a []byte copy of s: every refresh hashes every source, and a
// copy of each source is most of what a refresh that changes nothing
// allocates.
func sumString(s string) [sha256.Size]byte {
	h := sha256.New()
	var buf [8 << 10]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n]) // a hash.Hash Write never fails
		s = s[n:]
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// Resilience configures fault tolerance for Refresh. The zero value
// means one fetch attempt, no deadline, no circuit breaker — failures
// still degrade to last-good data, but nothing is retried.
type Resilience struct {
	// Retry schedules repeated fetch attempts per source.
	Retry resilience.RetryPolicy
	// FetchTimeout bounds each fetch attempt (0 = unbounded). A source
	// that hangs past the deadline counts as failed; its goroutine is
	// abandoned.
	FetchTimeout time.Duration
	// BreakerThreshold opens a per-source circuit breaker after that
	// many consecutive failed acquisitions (0 disables breakers), so a
	// dead source is not re-fetched and re-timed-out on every refresh.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting a probe.
	BreakerCooldown time.Duration
	// Clock drives backoff, deadlines and breaker cooldowns; nil means
	// the wall clock. Tests inject a resilience.FakeClock.
	Clock resilience.Clock
	// Rand supplies backoff jitter in [0,1); nil means math/rand.
	Rand func() float64
}

// clock resolves the configured clock, defaulting to the wall clock.
func (r Resilience) clock() resilience.Clock {
	if r.Clock == nil {
		return resilience.Real
	}
	return r.Clock
}

// medMetrics are the mediator's telemetry handles (nil when not
// instrumented).
type medMetrics struct {
	reg            *telemetry.Registry
	refreshOK      *telemetry.Counter
	refreshDegr    *telemetry.Counter
	refreshFail    *telemetry.Counter
	retries        *telemetry.Counter
	degradedGauge  *telemetry.Gauge
	breakerRejects *telemetry.Counter
}

// Mediator integrates a set of sources into one warehouse graph.
type Mediator struct {
	repo      *repository.Repository
	warehouse string
	sources   []*Source
	mappings  []*struql.Query
	registry  *struql.Registry
	// Refreshes counts committed refreshes, for diagnostics.
	Refreshes int

	// refreshMu serializes Refresh end to end (a background refresher
	// and a foreground rebuild must not interleave staging) and guards
	// lastGood/staleSince, which only the refresh path touches. It is
	// distinct from mu so that a slow, retrying refresh never blocks
	// LastReport/Instrument/SetResilience.
	refreshMu  sync.Mutex
	lastGood   map[string]goodCopy
	staleSince map[string]time.Time
	// lastWarehouse is the committed warehouse: the baseline of the
	// refresh report's warehouse-level delta, and the result of every
	// refresh that re-wraps no source. Committed warehouses are never
	// mutated. lastMapped counts the mappings it was built with.
	lastWarehouse *graph.Graph
	lastMapped    int

	// mu guards the fields below. It is held only for short critical
	// sections — never across fetches, per-attempt timeouts or backoff
	// sleeps; a refresh works from a snapshot taken at its start.
	mu         sync.Mutex
	res        Resilience
	breakers   map[string]*resilience.Breaker
	lastReport *RefreshReport
	met        *medMetrics
}

// New creates a mediator that materializes its integrated view in the
// named warehouse graph of the repository.
func New(repo *repository.Repository, warehouseName string) *Mediator {
	return &Mediator{
		repo:       repo,
		warehouse:  warehouseName,
		registry:   struql.NewRegistry(),
		breakers:   map[string]*resilience.Breaker{},
		lastGood:   map[string]goodCopy{},
		staleSince: map[string]time.Time{},
	}
}

// SetResilience configures retry, fetch deadlines and circuit breakers
// for subsequent Refreshes. Existing breaker state is discarded. A
// refresh already in flight keeps the configuration it started with.
func (m *Mediator) SetResilience(cfg Resilience) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.res = cfg
	m.breakers = map[string]*resilience.Breaker{}
}

// Instrument makes refreshes report into a telemetry registry: refresh
// outcomes, fetch retries, the number of currently degraded sources,
// breaker rejections, and per-source breaker state gauges
// (0 closed, 1 half-open, 2 open). Pass nil to detach.
func (m *Mediator) Instrument(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.met = nil
		return
	}
	refresh := func(result string) *telemetry.Counter {
		return reg.Counter("strudel_mediator_refresh_total",
			"Warehouse refreshes, by outcome (ok, degraded, failed).",
			"result", result)
	}
	m.met = &medMetrics{
		reg:         reg,
		refreshOK:   refresh("ok"),
		refreshDegr: refresh("degraded"),
		refreshFail: refresh("failed"),
		retries: reg.Counter("strudel_mediator_fetch_retries_total",
			"Source fetch attempts beyond the first, across all sources."),
		degradedGauge: reg.Gauge("strudel_mediator_degraded_sources",
			"Sources currently served from last-good data."),
		breakerRejects: reg.Counter("strudel_mediator_breaker_rejections_total",
			"Source fetches skipped because the circuit breaker was open."),
	}
}

// LastReport returns the report of the most recent Refresh (nil before
// the first).
func (m *Mediator) LastReport() *RefreshReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastReport
}

// metrics returns the current telemetry handles (nil when detached).
func (m *Mediator) metrics() *medMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.met
}

// breakerFor returns (creating on first use) the source's circuit
// breaker, or nil when breakers are disabled. cfg is the refresh's
// snapshot of the resilience configuration; m.mu must not be held.
func (m *Mediator) breakerFor(name string, cfg Resilience) *resilience.Breaker {
	if cfg.BreakerThreshold <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.breakers[name]; ok {
		return b
	}
	b := resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.clock())
	source := name
	b.OnStateChange(func(from, to resilience.BreakerState) {
		met := m.metrics()
		if met == nil {
			return
		}
		met.reg.Counter("strudel_mediator_breaker_transitions_total",
			"Circuit breaker state transitions, by source and new state.",
			"source", source, "to", to.String()).Inc()
		met.reg.Gauge("strudel_mediator_breaker_state",
			"Circuit breaker position per source (0 closed, 1 half-open, 2 open).",
			"source", source).Set(float64(to))
	})
	m.breakers[name] = b
	return b
}

// acquire fetches one source's content through breaker, retry and
// per-attempt deadline. It runs without m.mu held (fetches can be
// slow); cfg and met are the refresh's snapshots.
func (m *Mediator) acquire(s *Source, cfg Resilience, met *medMetrics) (string, int, error) {
	br := m.breakerFor(s.Name, cfg)
	var ticket resilience.Ticket
	if br != nil {
		t, err := br.Allow()
		if err != nil {
			if met != nil {
				met.breakerRejects.Inc()
			}
			return "", 0, err
		}
		ticket = t
	}
	var content string
	attempts := 0
	retrier := &resilience.Retrier{
		Policy: cfg.Retry,
		Clock:  cfg.clock(),
		Rand:   cfg.Rand,
		OnRetry: func(int, time.Duration, error) {
			if met != nil {
				met.retries.Inc()
			}
		},
	}
	_, err := retrier.Do(func() error {
		attempts++
		// fetched is per-attempt: a timed-out attempt's abandoned
		// goroutine keeps writing only its own local. content is
		// assigned on this goroutine, only after WithTimeout's receive
		// from the attempt's done channel — so never concurrently with
		// a later attempt or with the caller reading it.
		var fetched string
		err := resilience.WithTimeout(cfg.clock(), cfg.FetchTimeout, func() error {
			c, err := s.Fetch()
			if err != nil {
				return err
			}
			fetched = c
			return nil
		})
		if err != nil {
			return err
		}
		content = fetched
		return nil
	})
	if br != nil {
		br.Report(ticket, err)
	}
	return content, attempts, err
}

// Registry exposes the predicate registry used by mapping queries.
func (m *Mediator) Registry() *struql.Registry { return m.registry }

// AddSource registers a source with static content and a built-in
// wrapper kind.
func (m *Mediator) AddSource(name, kind, content string) error {
	w, ok := wrapper.ByName(kind)
	if !ok {
		return fmt.Errorf("mediator: unknown wrapper kind %q for source %q", kind, name)
	}
	m.sources = append(m.sources, &Source{
		Name:    name,
		Wrapper: w,
		Fetch:   func() (string, error) { return content, nil },
	})
	return nil
}

// AddSourceFunc registers a source whose content is produced by a
// fetch function called on every Refresh, with a built-in wrapper
// kind — a remote source, as opposed to AddSource's static text.
func (m *Mediator) AddSourceFunc(name, kind string, fetch func() (string, error)) error {
	w, ok := wrapper.ByName(kind)
	if !ok {
		return fmt.Errorf("mediator: unknown wrapper kind %q for source %q", kind, name)
	}
	m.sources = append(m.sources, &Source{Name: name, Wrapper: w, Fetch: fetch})
	return nil
}

// AddSourceDynamic registers a source with a fetch function, a custom
// wrapper and a mode.
func (m *Mediator) AddSourceDynamic(s *Source) {
	m.sources = append(m.sources, s)
}

// AddMapping registers a GAV mapping query. The query's INPUT names a
// source; its constructions are applied to the warehouse graph. The
// next refresh rebuilds the warehouse even if no source changed.
func (m *Mediator) AddMapping(q *struql.Query) error {
	if q.Input == "" {
		return fmt.Errorf("mediator: mapping query must name its INPUT source")
	}
	m.mappings = append(m.mappings, q)
	return nil
}

// Refresh fetches every source and returns the warehouse, rebuilt only
// if some source's bytes changed. Incremental view maintenance for
// semistructured data is an open problem the paper defers (Sec. 6):
// a changed source is re-wrapped whole and the warehouse re-merged and
// re-mapped whole, as in its prototype. A rebuilt warehouse replaces
// the graph object in the repository; callers must re-resolve it. See
// RefreshWithReport for the semantics under source failure.
func (m *Mediator) Refresh() (*graph.Graph, error) {
	wh, _, err := m.RefreshWithReport()
	return wh, err
}

// RefreshWithReport refreshes the warehouse with per-source fault
// tolerance and returns what happened source by source.
//
// Every source is fetched. One whose bytes hash (SHA-256) the same as
// those its last-good graph was wrapped from reuses that graph: it is
// Fresh and Unchanged, with an empty delta, and is not re-wrapped. If
// no source is re-wrapped, the committed warehouse object itself is
// returned with an empty warehouse delta: no merge, no mapping, no
// diff. The skip assumes wrappers, mappings and registry predicates
// are deterministic functions of the fetched bytes.
//
// Otherwise the new warehouse is staged off to the side: source graphs
// and the warehouse are built as unregistered siblings of the
// repository database and committed — together with the digests of the
// bytes they were wrapped from — only when the whole build succeeds,
// so a failed refresh never leaves the repository partial: readers
// keep the previous warehouse and src:* graphs, and the next refresh
// re-wraps whatever was not committed. A committed warehouse is never
// mutated.
//
// A source whose fetch fails (after the configured retries, deadline
// and breaker) degrades rather than aborts: its last-good graph
// feeds the new warehouse, the report marks it Degraded with the time
// it went stale, and the refresh continues. Only a failing source
// with no last-good copy — typically the very first refresh — aborts
// the refresh as a whole, with nothing committed.
func (m *Mediator) RefreshWithReport() (*graph.Graph, *RefreshReport, error) {
	m.refreshMu.Lock()
	defer m.refreshMu.Unlock()

	// Snapshot the tunables so the fetch loop — slow fetches, timeouts,
	// real-clock backoff sleeps — runs without m.mu, keeping LastReport
	// and reconfiguration responsive during a degraded refresh.
	m.mu.Lock()
	cfg := m.res
	met := m.met
	m.mu.Unlock()

	db := m.repo.Database()
	now := cfg.clock().Now()
	report := &RefreshReport{At: now}
	finish := func(failed bool) {
		m.mu.Lock()
		m.lastReport = report
		m.mu.Unlock()
		observeRefresh(met, report, failed)
	}
	abort := func(err error) (*graph.Graph, *RefreshReport, error) {
		finish(true)
		return nil, report, err
	}

	// Stage: wrap each source whose bytes changed into an unregistered
	// sibling graph, or reuse its last-good graph.
	use := map[string]*graph.Graph{} // graph feeding this build, per source
	fresh := map[string]goodCopy{}   // newly staged graphs, committed at the end
	for _, s := range m.sources {
		st := SourceStatus{Name: s.Name, State: Fresh}
		content, attempts, err := m.acquire(s, cfg, met)
		st.Attempts = attempts
		last, hasLast := m.lastGood[s.Name]
		if err == nil {
			sum := sumString(content)
			if hasLast && sum == last.sum {
				st.Unchanged = true
				st.Delta = &graph.Delta{}
				use[s.Name] = last.g
			} else if g, werr := m.wrap(db, s, content); werr != nil {
				err = werr
			} else {
				use[s.Name] = g
				fresh[s.Name] = goodCopy{g: g, sum: sum}
				if hasLast {
					st.Delta = graph.Diff(last.g, g)
				}
			}
		} else if !errors.Is(err, resilience.ErrBreakerOpen) {
			err = fmt.Errorf("mediator: fetching source %q: %w", s.Name, err)
		}
		if err != nil {
			st.Err = err
			if !hasLast {
				st.State = Failed
				report.Sources = append(report.Sources, st)
				return abort(err)
			}
			if m.staleSince[s.Name].IsZero() {
				m.staleSince[s.Name] = now
			}
			st.State = Degraded
			st.StaleSince = m.staleSince[s.Name]
			st.Delta = &graph.Delta{} // last-good reused verbatim
			use[s.Name] = last.g
		} else {
			delete(m.staleSince, s.Name)
		}
		report.Sources = append(report.Sources, st)
	}

	if len(fresh) == 0 && m.lastWarehouse != nil && m.lastMapped == len(m.mappings) {
		// Every source fed the committed warehouse the same graph.
		report.Warehouse = &graph.Delta{}
		m.Refreshes++
		finish(false)
		return m.lastWarehouse, report, nil
	}

	// Build the replacement warehouse, still off to the side. Merge
	// shares each source's node and collection records with it, so this
	// copies no edge, and the committed graphs stay as readers hold them.
	wh := db.Sibling(m.warehouse)
	for _, s := range m.sources {
		if s.Mode == Merge {
			wh.Merge(use[s.Name])
		}
	}
	// Apply GAV mappings. Their failures are configuration or query
	// bugs, not source flakiness: abort with nothing committed.
	for _, q := range m.mappings {
		src, ok := use[q.Input]
		if !ok {
			return abort(fmt.Errorf("mediator: mapping query reads unknown source %q", q.Input))
		}
		if _, err := struql.Eval(q, src, &struql.Options{Output: wh, Registry: m.registry}); err != nil {
			return abort(fmt.Errorf("mediator: mapping over source %q: %w", q.Input, err))
		}
	}

	// The warehouse-level delta subsumes the per-source ones (it sees
	// the data after GAV mapping); it is what incremental rebuilds key
	// on. No baseline on the first refresh leaves it nil — "unknown".
	if m.lastWarehouse != nil {
		report.Warehouse = graph.DiffScope(m.lastWarehouse, wh, m.diffScope(wh, use, report))
	}

	// Commit: publish the fresh source graphs and the new warehouse.
	// Each Put is an atomic pointer swap in the database; readers
	// holding the old graphs keep a consistent (if stale) view.
	for name, c := range fresh {
		m.repo.Put(c.g)
		m.lastGood[name] = c
	}
	m.repo.Put(wh)
	m.lastWarehouse, m.lastMapped = wh, len(m.mappings)
	m.Refreshes++
	finish(false)
	return wh, report, nil
}

// wrap wraps one source's content into an unregistered sibling graph.
func (m *Mediator) wrap(db *graph.Database, s *Source, content string) (*graph.Graph, error) {
	g := db.Sibling("src:" + s.Name)
	if err := s.Wrapper.Wrap(g, s.Name, content); err != nil {
		return nil, fmt.Errorf("mediator: wrapping source %q: %w", s.Name, err)
	}
	return g, nil
}

// diffScope returns the objects and collections of the new warehouse
// wh that can differ from the committed one, or nil — diff everything
// — when that cannot be read off the sources: a GAV mapping is
// registered (its output need not follow source keys), a merged source
// has no last-good baseline, or two merged sources share a node (then
// a node's edges are not those of one source). Nothing else needs the
// full diff.
//
// With merged sources node-disjoint, a warehouse object differs only
// if a re-wrapped source's delta names it, or if some node's warehouse
// key moved: a node of a re-wrapped source whose key differs from its
// key in that source (its name is bound to another source's node), or
// a node of an unchanged source that won or lost a name a re-wrapped
// source also uses. A moved key changes the node itself, the edges of
// every node pointing at it, and the collections holding it.
func (m *Mediator) diffScope(wh *graph.Graph, use map[string]*graph.Graph, report *RefreshReport) *graph.Scope {
	if len(m.mappings) > 0 {
		return nil
	}
	old := m.lastWarehouse
	objs, colls := map[string]struct{}{}, map[string]struct{}{}
	moved := func(g *graph.Graph, id graph.OID) {
		objs[g.Key(id)] = struct{}{}
		for _, e := range g.In(id) {
			objs[g.Key(e.From)] = struct{}{}
		}
		for _, c := range g.Collections() {
			if g.InCollection(c, graph.NodeValue(id)) {
				colls[c] = struct{}{}
			}
		}
	}
	names := map[string]struct{}{} // node names of re-wrapped sources
	oldNodes, newNodes := 0, 0
	for i, s := range m.sources {
		if s.Mode != Merge {
			continue
		}
		last, ok := m.lastGood[s.Name]
		if !ok {
			return nil
		}
		cur := use[s.Name]
		oldNodes += last.g.NumNodes()
		newNodes += cur.NumNodes()
		if cur == last.g {
			continue
		}
		d := report.Sources[i].Delta
		for _, k := range d.Objects() {
			objs[k] = struct{}{}
		}
		for _, c := range d.TouchedCollections {
			colls[c] = struct{}{}
		}
		for _, side := range [...]struct{ src, wh *graph.Graph }{{last.g, old}, {cur, wh}} {
			for _, id := range side.src.Nodes() {
				if key := side.src.Key(id); key != side.wh.Key(id) {
					objs[key] = struct{}{}
					moved(side.wh, id)
				}
				if name := side.src.NodeName(id); name != "" {
					names[name] = struct{}{}
				}
			}
		}
	}
	if oldNodes != old.NumNodes() || newNodes != wh.NumNodes() {
		return nil // merged sources share nodes
	}
	for name := range names {
		for _, g := range [...]*graph.Graph{old, wh} {
			id, ok := g.NodeByName(name)
			if ok && old.HasNode(id) && wh.HasNode(id) && old.Key(id) != wh.Key(id) {
				moved(old, id)
				moved(wh, id)
			}
		}
	}
	return &graph.Scope{Objects: keys(objs), Collections: keys(colls)}
}

func keys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// observeRefresh records a refresh outcome in telemetry (met may be
// nil).
func observeRefresh(met *medMetrics, r *RefreshReport, failed bool) {
	if met == nil {
		return
	}
	degraded := len(r.Degraded())
	switch {
	case failed:
		met.refreshFail.Inc()
	case degraded > 0:
		met.refreshDegr.Inc()
	default:
		met.refreshOK.Inc()
	}
	met.degradedGauge.Set(float64(degraded))
}

// Warehouse returns the current warehouse graph, if Refresh has run.
func (m *Mediator) Warehouse() (*graph.Graph, bool) {
	return m.repo.Graph(m.warehouse)
}
