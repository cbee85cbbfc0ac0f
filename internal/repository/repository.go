package repository

import (
	"fmt"
	"sync"

	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/telemetry"
)

// Repository stores the data graphs and site graphs of a STRUDEL
// application: a database of graphs plus the index sets built over
// them, with optional on-disk persistence (see Save and Open).
type Repository struct {
	mu       sync.Mutex
	db       *graph.Database
	dir      string // persistence directory; "" = memory only
	fsys     fsx.FS // filesystem Save/Open go through; nil = fsx.OS
	indexes  map[string]*GraphIndex
	indexing bool
	met      *indexMetrics
}

// indexMetrics are the repository's telemetry handles (nil when not
// instrumented).
type indexMetrics struct {
	builds, cacheHits          *telemetry.Counter
	labelLookups, valueLookups *telemetry.Counter
	schemaLookups              *telemetry.Counter
}

// Instrument makes the repository report index behaviour into a
// telemetry registry: index (re)builds, index-cache hits, and — via
// the GraphIndex snapshots it hands out — per-kind lookup counters
// (attribute extent, global value index, schema index).
func (r *Repository) Instrument(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lookups := func(kind string) *telemetry.Counter {
		return reg.Counter("strudel_repository_index_lookups_total",
			"Index probes served, by index kind.", "index", kind)
	}
	r.met = &indexMetrics{
		builds: reg.Counter("strudel_repository_index_builds_total",
			"Full index-set builds (rebuilds after invalidation included)."),
		cacheHits: reg.Counter("strudel_repository_index_cache_hits_total",
			"Index requests answered from the cached snapshot."),
		labelLookups:  lookups("label"),
		valueLookups:  lookups("value"),
		schemaLookups: lookups("schema"),
	}
	// Already cached snapshots start reporting too.
	for _, idx := range r.indexes {
		idx.met = r.met
	}
}

// New creates a repository. dir is the persistence directory used by
// Save; pass "" for a memory-only repository.
func New(dir string) *Repository {
	return &Repository{
		db:       graph.NewDatabase(),
		dir:      dir,
		indexes:  map[string]*GraphIndex{},
		indexing: true,
	}
}

// SetFS routes persistence through an injectable filesystem (nil
// restores the real one). The fault-injection suite uses this to crash
// Save at arbitrary write boundaries.
func (r *Repository) SetFS(fsys fsx.FS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fsys = fsys
}

// fs returns the filesystem persistence goes through.
func (r *Repository) fs() fsx.FS {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fsys == nil {
		return fsx.OS
	}
	return r.fsys
}

// Database exposes the underlying graph database.
func (r *Repository) Database() *graph.Database { return r.db }

// NewGraph creates (or returns) a graph in the repository's database.
func (r *Repository) NewGraph(name string) *graph.Graph {
	return r.db.NewGraph(name)
}

// Put attaches an externally built graph (e.g. a wrapper's output)
// to the repository and schedules its indexing.
func (r *Repository) Put(g *graph.Graph) {
	r.db.Attach(g)
	r.Invalidate(g.Name())
}

// Graph returns the named graph.
func (r *Repository) Graph(name string) (*graph.Graph, bool) {
	return r.db.Graph(name)
}

// SetIndexing toggles index maintenance; with indexing off, Index
// returns nil and query processing falls back to scans. Used by the
// index-ablation experiment (maintaining the full index set is
// expensive, as the paper notes, but benefits queries).
func (r *Repository) SetIndexing(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.indexing = on
	if !on {
		r.indexes = map[string]*GraphIndex{}
	}
}

// Index returns the (lazily built) index set for a graph, or nil if
// indexing is disabled or the graph does not exist.
func (r *Repository) Index(name string) *GraphIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.indexing {
		return nil
	}
	if idx, ok := r.indexes[name]; ok {
		if r.met != nil {
			r.met.cacheHits.Inc()
		}
		return idx
	}
	g, ok := r.db.Graph(name)
	if !ok {
		return nil
	}
	idx := instrumentedIndex(g, r.met)
	r.indexes[name] = idx
	return idx
}

// IndexOf indexes g without registering it or caching the index, for
// evaluations over a snapshot that may not be the graph stored under
// its name. Nil if indexing is disabled.
func (r *Repository) IndexOf(g *graph.Graph) *GraphIndex {
	r.mu.Lock()
	on, met := r.indexing, r.met
	r.mu.Unlock()
	if !on {
		return nil
	}
	return instrumentedIndex(g, met)
}

// instrumentedIndex builds g's index set reporting into met (nil when
// the repository is not instrumented).
func instrumentedIndex(g *graph.Graph, met *indexMetrics) *GraphIndex {
	idx := BuildIndex(g)
	idx.met = met
	if met != nil {
		met.builds.Inc()
	}
	return idx
}

// Invalidate discards the cached index for a graph; the next Index
// call rebuilds it. Call after mutating a graph.
func (r *Repository) Invalidate(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.indexes, name)
}

// Drop removes a graph and its index.
func (r *Repository) Drop(name string) {
	r.db.Drop(name)
	r.Invalidate(name)
}

// Names lists the graphs in the repository.
func (r *Repository) Names() []string { return r.db.Names() }

// Stats summarizes the repository for diagnostics.
func (r *Repository) Stats() string {
	s := ""
	for _, n := range r.Names() {
		g, _ := r.Graph(n)
		st := g.Stats()
		s += fmt.Sprintf("%s: %d nodes, %d edges, %d collections, %d labels\n",
			n, st.Nodes, st.Edges, st.Collections, st.Labels)
	}
	return s
}
