package mediator

import (
	"fmt"
	"sort"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// VirtualQuery evaluates a query over the mediated schema without a
// materialized warehouse — the "virtual" approach to data integration
// the paper contrasts with its warehousing prototype (Sec. 2.3: "in
// the virtual approach, the data remains in the sources, and queries
// to the mediator are decomposed at runtime into queries on the
// sources"). The decomposition here is source pruning: the query's
// collection references determine, through the GAV mappings, which
// sources are relevant; only those are fetched and wrapped at query
// time, only the relevant mappings run, and the query evaluates over
// the resulting transient view, which is discarded afterwards.
//
// Sources therefore stay authoritative: a VirtualQuery always sees
// their current contents, at the price of re-wrapping per query — the
// trade-off the paper describes.
func (m *Mediator) VirtualQuery(q *struql.Query) (*struql.Result, error) {
	needed := m.collectionsOf(q)
	srcNames, mappings := m.relevantSources(needed)
	if len(srcNames) == 0 {
		return nil, fmt.Errorf("mediator: query references no known mediated collection (wanted %v)", needed)
	}
	// Build the transient view: its own database, discarded after.
	db := graph.NewDatabase()
	view := db.NewGraph("virtual:" + m.warehouse)
	srcGraphs := map[string]*graph.Graph{}
	for _, s := range m.sources {
		if !srcNames[s.Name] {
			continue
		}
		content, err := s.Fetch()
		if err != nil {
			return nil, fmt.Errorf("mediator: fetching source %q: %w", s.Name, err)
		}
		g := db.NewGraph("src:" + s.Name)
		if err := s.Wrapper.Wrap(g, s.Name, content); err != nil {
			return nil, fmt.Errorf("mediator: wrapping source %q: %w", s.Name, err)
		}
		srcGraphs[s.Name] = g
		if s.Mode == Merge {
			view.Merge(g)
		}
	}
	for _, mq := range mappings {
		src, ok := srcGraphs[mq.Input]
		if !ok {
			continue
		}
		if _, err := struql.Eval(mq, src, &struql.Options{Output: view, Registry: m.registry}); err != nil {
			return nil, fmt.Errorf("mediator: mapping over source %q: %w", mq.Input, err)
		}
	}
	return struql.Eval(q, view, &struql.Options{Registry: m.registry})
}

// collectionsOf extracts the collection names a query's membership
// conditions reference.
func (m *Mediator) collectionsOf(q *struql.Query) []string {
	set := map[string]bool{}
	var walkConds func(cs []struql.Condition)
	walkConds = func(cs []struql.Condition) {
		for _, c := range cs {
			switch c := c.(type) {
			case *struql.MembershipCond:
				set[c.Collection] = true
			case *struql.NotCond:
				walkConds([]struql.Condition{c.Inner})
			}
		}
	}
	var walk func(b *struql.Block)
	walk = func(b *struql.Block) {
		walkConds(b.Where)
		for _, ch := range b.Children {
			walk(ch)
		}
	}
	walk(q.Root)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// relevantSources maps wanted collections back to sources: a merge
// source is relevant if it could declare the collection (statically
// unknowable without wrapping, so all merge sources whose wrapped
// output is needed count); a mapped source is relevant if one of its
// mapping queries collects into a wanted collection. Mappings whose
// outputs are wanted are returned too.
func (m *Mediator) relevantSources(wanted []string) (map[string]bool, []*struql.Query) {
	wantedSet := map[string]bool{}
	for _, c := range wanted {
		wantedSet[c] = true
	}
	srcs := map[string]bool{}
	var mappings []*struql.Query
	for _, mq := range m.mappings {
		if mappingProduces(mq, wantedSet) {
			mappings = append(mappings, mq)
			srcs[mq.Input] = true
			// The mapping's own conditions may reference further
			// collections of its source graph; they come with it.
		}
	}
	// Merge-mode sources contribute their collections directly; since
	// collection names are only known after wrapping, include every
	// merge source (the common case has few).
	for _, s := range m.sources {
		if s.Mode == Merge {
			srcs[s.Name] = true
		}
	}
	return srcs, mappings
}

// mappingProduces reports whether a mapping query collects into any
// wanted collection.
func mappingProduces(q *struql.Query, wanted map[string]bool) bool {
	var walk func(b *struql.Block) bool
	walk = func(b *struql.Block) bool {
		for _, c := range b.Collects {
			if wanted[c.Collection] {
				return true
			}
		}
		for _, ch := range b.Children {
			if walk(ch) {
				return true
			}
		}
		return false
	}
	return walk(q.Root)
}
