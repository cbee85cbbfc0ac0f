package incremental

import (
	"strudel/internal/graph"
	"strudel/internal/schema"
)

// AdoptCache copies the cached pages of classes the impact analysis
// clears from a previous decomposition into this one, translating node
// references by symbolic name into the new input graph (OIDs are not
// stable across warehouse refreshes; names are). Entries of affected
// classes, and entries touching unnamed or vanished nodes, are dropped
// — conservatively recomputed on the next click. Cached PageData holds
// exactly the page's own out-edges (link targets are identified by
// key, not content; a render reads a linked page's anchor text from
// that page's own entry), so direct class sensitivity, without the
// render closure, is enough for soundness. Returns the number of
// entries adopted.
func (d *Decomposition) AdoptCache(prev *Decomposition, im *schema.Impact) int {
	if prev == nil || im == nil || im.All {
		return 0
	}
	translate := func(v graph.Value) (graph.Value, bool) {
		if !v.IsNode() {
			return v, true
		}
		name := prev.input.NodeName(v.OID())
		if name == "" {
			return v, false
		}
		id, ok := d.input.NodeByName(name)
		if !ok {
			return v, false
		}
		return graph.NodeValue(id), true
	}
	translateRef := func(r PageRef) (PageRef, bool) {
		out := PageRef{Func: r.Func, Args: make([]graph.Value, len(r.Args))}
		for i, a := range r.Args {
			v, ok := translate(a)
			if !ok {
				return out, false
			}
			out.Args[i] = v
		}
		return out, true
	}

	prev.mu.Lock()
	entries := make([]*PageData, 0, len(prev.cache))
	for _, pd := range prev.cache {
		entries = append(entries, pd)
	}
	prev.mu.Unlock()

	adopted := 0
	for _, pd := range entries {
		if im.Affected(pd.Ref.Func) {
			continue
		}
		ref, ok := translateRef(pd.Ref)
		if !ok {
			continue
		}
		npd := &PageData{Ref: ref, Edges: make([]PageEdge, 0, len(pd.Edges))}
		ok = true
		for _, e := range pd.Edges {
			ne := PageEdge{Label: e.Label}
			if e.Page != nil {
				pref, pok := translateRef(*e.Page)
				if !pok {
					ok = false
					break
				}
				d.remember(&pref)
				ne.Page = &pref
			} else {
				v, vok := translate(e.Value)
				if !vok {
					ok = false
					break
				}
				ne.Value = v
			}
			npd.Edges = append(npd.Edges, ne)
		}
		if !ok {
			continue
		}
		key := d.remember(&npd.Ref)
		npd.Key = key
		d.mu.Lock()
		if _, exists := d.cache[key]; !exists {
			d.cache[key] = npd
			adopted++
		}
		d.mu.Unlock()
	}
	return adopted
}
