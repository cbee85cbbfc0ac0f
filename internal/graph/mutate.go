package graph

import "sort"

// RemoveEdge deletes the edge (from, label, to) if present, keeping the
// remaining out-edges in their original order and the target's reverse
// adjacency consistent. It reports whether an edge was removed.
func (g *Graph) RemoveEdge(from OID, label string, to Value) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	nd, ok := g.nodes[from]
	if !ok {
		return false
	}
	idx := -1
	for i, e := range nd.out {
		if e.Label == label && e.To == to {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	nd.out = append(nd.out[:idx:idx], nd.out[idx+1:]...)
	g.edgeCount--
	if to.IsNode() {
		if tn, ok := g.nodes[to.OID()]; ok {
			for i, e := range tn.in {
				if e.From == from && e.Label == label {
					tn.in = append(tn.in[:i:i], tn.in[i+1:]...)
					break
				}
			}
		}
	}
	g.logOp(Op{Kind: OpRemoveEdge, Edge: Edge{From: from, Label: label, To: to}, Name: nd.name})
	return true
}

// RemoveNode deletes a node together with all edges into and out of it,
// its name binding, and its collection memberships. It reports whether
// the node existed.
func (g *Graph) RemoveNode(id OID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	nd, ok := g.nodes[id]
	if !ok {
		return false
	}
	// Out-edges: drop the reverse entry on each node-valued target.
	for _, e := range nd.out {
		if e.To.IsNode() && e.To.OID() != id {
			if tn, ok := g.nodes[e.To.OID()]; ok {
				tn.in = dropIn(tn.in, id, "")
			}
		}
		g.logOp(Op{Kind: OpRemoveEdge, Edge: e, Name: nd.name})
	}
	g.edgeCount -= len(nd.out)
	// In-edges: drop the forward edge on each source node.
	for _, e := range nd.in {
		if e.From == id {
			continue // self-edge, already counted in nd.out
		}
		if sn, ok := g.nodes[e.From]; ok {
			kept := sn.out[:0:0]
			removed := 0
			for _, oe := range sn.out {
				if oe.To.IsNode() && oe.To.OID() == id {
					removed++
					g.logOp(Op{Kind: OpRemoveEdge, Edge: oe, Name: sn.name})
					continue
				}
				kept = append(kept, oe)
			}
			sn.out = kept
			g.edgeCount -= removed
		}
	}
	// Name bindings and collection memberships.
	for name, bound := range g.names {
		if bound == id {
			delete(g.names, name)
		}
	}
	delete(g.aliases, id)
	v := NodeValue(id)
	// Deterministic membership-removal order for journal consumers.
	cnames := make([]string, 0, len(g.colls))
	for cn := range g.colls {
		cnames = append(cnames, cn)
	}
	sort.Strings(cnames)
	for _, cn := range cnames {
		c := g.colls[cn]
		if _, member := c.seen[v]; member {
			delete(c.seen, v)
			c.members = dropValue(c.members, v)
			g.logOp(Op{Kind: OpRemoveMember, Coll: cn, Member: v, Name: nd.name})
		}
	}
	delete(g.nodes, id)
	g.logOp(Op{Kind: OpRemoveNode, Node: id, Name: nd.name})
	return true
}

// RemoveFromCollection deletes a value from a named collection,
// preserving the order of the remaining members. It reports whether the
// value was a member.
func (g *Graph) RemoveFromCollection(name string, v Value) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.colls[name]
	if !ok {
		return false
	}
	if _, member := c.seen[v]; !member {
		return false
	}
	delete(c.seen, v)
	c.members = dropValue(c.members, v)
	var mname string
	if v.IsNode() {
		mname = g.nameOfLocked(v.OID())
	}
	g.logOp(Op{Kind: OpRemoveMember, Coll: name, Member: v, Name: mname})
	return true
}

// SetLabelOrder rearranges the edges with the given label out of a
// node to match order, which must be a permutation of their current
// target values. Edges with other labels keep their slots, so the
// relative order across labels is untouched. It reports whether the
// reorder was applied (false on unknown node or non-permutation).
func (g *Graph) SetLabelOrder(id OID, label string, order []Value) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	nd, ok := g.nodes[id]
	if !ok {
		return false
	}
	var slots []int
	for i, e := range nd.out {
		if e.Label == label {
			slots = append(slots, i)
		}
	}
	if len(slots) != len(order) {
		return false
	}
	counts := make(map[Value]int, len(order))
	for _, i := range slots {
		counts[nd.out[i].To]++
	}
	for _, v := range order {
		counts[v]--
		if counts[v] < 0 {
			return false
		}
	}
	// Equal lengths with no negative count means exact permutation.
	for j, i := range slots {
		nd.out[i] = Edge{From: id, Label: label, To: order[j]}
	}
	return true
}

// SetMemberOrder rearranges a collection's members to match order,
// which must be a permutation of the current members. It reports
// whether the reorder was applied.
func (g *Graph) SetMemberOrder(name string, order []Value) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.colls[name]
	if !ok || len(order) != len(c.members) {
		return false
	}
	for _, v := range order {
		if _, member := c.seen[v]; !member {
			return false
		}
	}
	// Members are unique (seen-set), so a length-equal subset is a
	// permutation.
	copy(c.members, order)
	return true
}

// RenumberNodes reassigns fresh, ascending OIDs to the named nodes in
// the given order, so that iterating the graph's nodes by OID visits
// them in exactly that order (after any node not listed). All edges,
// reverse adjacencies, name bindings and collection members are
// rewritten; unlisted nodes keep their OIDs. Differential maintenance
// uses this to keep an in-place-updated graph's node enumeration
// identical to a from-scratch construction. The renumbering is not
// journaled — callers renumber graphs whose consumers key on names,
// not OIDs. Returns the old→new mapping, or nil when a name is
// unknown (the graph is then unchanged).
func (g *Graph) RenumberNodes(order []string) map[OID]OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	mapping := make(map[OID]OID, len(order))
	for _, name := range order {
		id, ok := g.names[name]
		if !ok {
			return nil
		}
		mapping[id] = g.alloc.take() // fresh: beyond every OID in use
	}
	remap := func(id OID) OID {
		if n, ok := mapping[id]; ok {
			return n
		}
		return id
	}
	remapV := func(v Value) Value {
		if v.IsNode() {
			if n, ok := mapping[v.OID()]; ok {
				return NodeValue(n)
			}
		}
		return v
	}
	nodes := make(map[OID]*nodeData, len(g.nodes))
	for id, nd := range g.nodes {
		for i := range nd.out {
			nd.out[i].From = remap(nd.out[i].From)
			nd.out[i].To = remapV(nd.out[i].To)
		}
		for i := range nd.in {
			nd.in[i].From = remap(nd.in[i].From)
			nd.in[i].To = remapV(nd.in[i].To)
		}
		nodes[remap(id)] = nd
	}
	g.nodes = nodes
	for name, id := range g.names {
		g.names[name] = remap(id)
	}
	if len(g.aliases) > 0 {
		aliases := make(map[OID]string, len(g.aliases))
		for id, key := range g.aliases {
			aliases[remap(id)] = key
		}
		g.aliases = aliases
	}
	for _, c := range g.colls {
		seen := make(map[Value]struct{}, len(c.seen))
		for i, m := range c.members {
			c.members[i] = remapV(m)
			seen[c.members[i]] = struct{}{}
		}
		c.seen = seen
	}
	return mapping
}

// dropIn removes every reverse-adjacency entry from the given source
// (all labels when label is ""), preserving order.
func dropIn(in []Edge, from OID, label string) []Edge {
	kept := in[:0:0]
	for _, e := range in {
		if e.From == from && (label == "" || e.Label == label) {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// dropValue removes every occurrence of v, preserving order.
func dropValue(vals []Value, v Value) []Value {
	kept := vals[:0:0]
	for _, m := range vals {
		if m == v {
			continue
		}
		kept = append(kept, m)
	}
	return kept
}
