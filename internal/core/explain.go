// EXPLAIN at the site level: evaluate the site-definition queries with
// per-operator profiling and report, per query, the block-structured
// plan with estimated vs actual cardinalities. This is the `strudel
// explain` verb and the /debug/explain endpoint; it runs the real
// query stage (same planner, same physical operators), so the plan it
// prints is the plan builds execute. Page provenance (`strudel why`,
// /debug/provenance) is the same kind of on-demand re-run, recording
// why each site-graph node exists instead of profiling.
package core

import (
	"fmt"
	"io"

	"strudel/internal/graph"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
)

// QueryExplain is one site-definition query's profiled evaluation.
type QueryExplain struct {
	Index    int              `json:"index"`
	Source   string           `json:"source,omitempty"`
	Bindings int              `json:"bindings"`
	NewNodes int              `json:"new_nodes"`
	Plan     *struql.PlanNode `json:"plan"`
}

// Explain is the profiled evaluation of a site's whole query stage.
type Explain struct {
	Site      string         `json:"site"`
	Optimizer bool           `json:"optimizer"`
	Workers   int            `json:"workers"`
	DataNodes int            `json:"data_nodes"`
	DataEdges int            `json:"data_edges"`
	Queries   []QueryExplain `json:"queries"`
}

// ExplainData profiles the query stage over an already-integrated data
// graph. It deliberately does not refresh the mediator: explaining a
// serving site must not advance its delta baseline (a refresh here
// would make the next incremental rebuild diff against data the site
// never rendered).
func (b *Builder) ExplainData(data *graph.Graph) (*Explain, error) {
	qe, err := b.evalQueries(data, nil, b.buildPool(), true, nil)
	if err != nil {
		return nil, err
	}
	ds := data.Stats()
	ex := &Explain{
		Site:      b.name,
		Optimizer: b.optimize,
		Workers:   b.buildPool().Workers(),
		DataNodes: ds.Nodes,
		DataEdges: ds.Edges,
	}
	for i, qr := range qe.perQuery {
		src := ""
		if b.queries[i].Source != "" {
			src = b.queries[i].Source
		}
		ex.Queries = append(ex.Queries, QueryExplain{
			Index:    i,
			Source:   src,
			Bindings: qr.bindings,
			NewNodes: qr.newNodes,
			Plan:     qr.plan,
		})
	}
	return ex, nil
}

// Explain integrates the data graph (mediating if sources are
// registered) and profiles the query stage over it.
func (b *Builder) Explain() (*Explain, error) {
	data, err := b.buildDataGraph()
	if err != nil {
		return nil, err
	}
	return b.ExplainData(data)
}

// Provenance is the derivation record of one built result's pages:
// the Skolem function, binding tuples and source objects behind every
// node of its site graph.
type Provenance struct {
	site  *sitegen.Site
	graph *graph.Graph // the re-evaluated site graph the records describe
	rec   *struql.Provenance
}

// Provenance re-runs the site-definition queries over res's data graph
// with a provenance recorder. Like ExplainData it neither refreshes the
// mediator nor renders, so a build pays nothing for provenance; each
// call pays one query stage. Under SetDataGraph the data graph changes
// in place: take a result's provenance before the next edit.
func (b *Builder) Provenance(res *Result) (*Provenance, error) {
	rec := struql.NewProvenance()
	qe, err := b.evalQueries(res.DataGraph, nil, b.buildPool(), false, rec)
	if err != nil {
		return nil, err
	}
	return &Provenance{site: res.Site, graph: qe.site, rec: rec}, nil
}

// Page returns the provenance of one page of the result, looked up by
// path ("YearPage_1997.html", with or without the extension) or by the
// page object's symbolic name ("YearPage(1997)").
func (p *Provenance) Page(page string) (*sitegen.PageProvenance, bool) {
	pg, ok := p.site.Pages[page]
	if !ok {
		pg, ok = p.site.Pages[page+".html"]
	}
	if !ok {
		for _, cand := range p.site.Pages {
			if cand.Name == page {
				pg, ok = cand, true
				break
			}
		}
	}
	if !ok {
		return nil, false
	}
	// Site-graph OIDs differ between evaluations, names do not; an
	// unnamed page object is a data-graph node, whose OID is shared.
	at := *pg
	if pg.Name != "" {
		if at.OID, ok = p.graph.NodeByName(pg.Name); !ok {
			return nil, false
		}
	}
	return sitegen.PageProvenanceFor(p.graph, &at, p.rec), true
}

// WriteText renders the explain report as an indented plan listing.
func (e *Explain) WriteText(w io.Writer) {
	planner := "interpreter"
	if e.Optimizer {
		planner = "cost-based optimizer"
	}
	fmt.Fprintf(w, "site %s: %d nodes, %d edges, planner: %s, workers: %d\n",
		e.Site, e.DataNodes, e.DataEdges, planner, e.Workers)
	for _, q := range e.Queries {
		fmt.Fprintf(w, "query[%d]: %d bindings, %d new nodes\n",
			q.Index, q.Bindings, q.NewNodes)
		if q.Plan != nil {
			q.Plan.WriteText(w)
		}
	}
}
