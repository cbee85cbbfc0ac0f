// Page-level provenance assembly: a page's HTML embeds every object
// reachable from its page node in the site graph, so its provenance is
// the union of the struql-recorded node provenance over that forward
// closure — exactly the dependency cone the incremental rebuilder
// walks in reverse when it decides which pages a data change touches.
package sitegen

import (
	"fmt"
	"io"
	"sort"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// PageProvenance answers "why does this page exist and what does it
// depend on": the Skolem function and binding tuples that created the
// page node, plus the source objects and attribute labels consumed by
// every site-graph object the page renders.
type PageProvenance struct {
	Path string `json:"path"`
	Name string `json:"name"`
	Func string `json:"func,omitempty"`
	// Objects are the symbolic names of the site-graph nodes in the
	// page's render closure, sorted.
	Objects []string `json:"objects,omitempty"`
	// TupleCount and Tuples describe the page node's own bindings.
	TupleCount int              `json:"tuple_count"`
	Tuples     []struql.Binding `json:"tuples,omitempty"`
	// Sources are the data-graph objects the whole closure consumed.
	Sources []struql.SourceRef `json:"sources"`
	// Attrs are the data-graph attribute labels the closure read.
	Attrs []string `json:"attrs,omitempty"`
}

// PageProvenanceFor assembles the provenance of one generated page
// from an evaluation's node-level records: prov is the recorder passed
// to the evaluation that produced siteGraph, and pg.OID names the page
// object in siteGraph.
func PageProvenanceFor(siteGraph *graph.Graph, pg *Page, prov *struql.Provenance) *PageProvenance {
	out := &PageProvenance{
		Path: pg.Path,
		Name: pg.Name,
		Func: skolemFunc(pg.Name),
	}
	closure := siteGraph.Reachable(pg.OID)
	oids := make([]graph.OID, 0, len(closure))
	for oid := range closure {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })

	srcByOID := map[graph.OID]struql.SourceRef{}
	attrs := map[string]struct{}{}
	for _, oid := range oids {
		np, ok := prov.Node(oid)
		if !ok {
			continue
		}
		out.Objects = append(out.Objects, np.Name)
		if oid == pg.OID {
			out.TupleCount = np.TupleCount
			out.Tuples = np.Tuples
		}
		for _, s := range np.Sources {
			srcByOID[s.OID] = s
		}
		for _, a := range np.Attrs {
			attrs[a] = struct{}{}
		}
	}
	sort.Strings(out.Objects)
	out.Sources = make([]struql.SourceRef, 0, len(srcByOID))
	for _, s := range srcByOID {
		out.Sources = append(out.Sources, s)
	}
	sort.Slice(out.Sources, func(i, j int) bool {
		a, b := out.Sources[i], out.Sources[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.OID < b.OID
	})
	out.Attrs = make([]string, 0, len(attrs))
	for a := range attrs {
		out.Attrs = append(out.Attrs, a)
	}
	sort.Strings(out.Attrs)
	return out
}

// WriteText renders the provenance as a human-readable listing (the
// `strudel why` output).
func (p *PageProvenance) WriteText(w io.Writer) {
	fmt.Fprintf(w, "page %s\n", p.Path)
	fmt.Fprintf(w, "  object  %s\n", p.Name)
	if p.Func != "" {
		fmt.Fprintf(w, "  skolem  %s  (%d binding tuples)\n", p.Func, p.TupleCount)
	}
	for _, t := range p.Tuples {
		vars := make([]string, 0, len(t))
		for v := range t {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		fmt.Fprintf(w, "    tuple ")
		for i, v := range vars {
			if i > 0 {
				fmt.Fprintf(w, ", ")
			}
			fmt.Fprintf(w, "%s=%s", v, t[v])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  sources (%d):\n", len(p.Sources))
	for _, s := range p.Sources {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("oid:%d", s.OID)
		}
		fmt.Fprintf(w, "    %s\n", name)
	}
	if len(p.Attrs) > 0 {
		fmt.Fprintf(w, "  attributes: ")
		for i, a := range p.Attrs {
			if i > 0 {
				fmt.Fprintf(w, ", ")
			}
			fmt.Fprintf(w, "%s", a)
		}
		fmt.Fprintln(w)
	}
}
