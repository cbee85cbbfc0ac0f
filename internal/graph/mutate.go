package graph

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
	nd = g.ownNode(from, nd)
	nd.out = append(nd.out[:idx:idx], nd.out[idx+1:]...)
	g.edgeCount--
	if to.IsNode() {
		if tn, ok := g.nodes[to.OID()]; ok {
			tn = g.ownNode(to.OID(), tn)
			for i, e := range tn.in {
				if e.From == from && e.Label == label {
					tn.in = append(tn.in[:i:i], tn.in[i+1:]...)
					break
				}
			}
		}
	}
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
	// nd itself is dropped, never written, so it is not owned.
	for _, e := range nd.out {
		if e.To.IsNode() && e.To.OID() != id {
			if tn, ok := g.nodes[e.To.OID()]; ok {
				tn = g.ownNode(e.To.OID(), tn)
				tn.in = dropIn(tn.in, id, "")
			}
		}
	}
	g.edgeCount -= len(nd.out)
	// In-edges: drop the forward edge on each source node.
	for _, e := range nd.in {
		if e.From == id {
			continue // self-edge, already counted in nd.out
		}
		if sn, ok := g.nodes[e.From]; ok {
			sn = g.ownNode(e.From, sn)
			kept := sn.out[:0:0]
			removed := 0
			for _, oe := range sn.out {
				if oe.To.IsNode() && oe.To.OID() == id {
					removed++
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
	for name, c := range g.colls {
		if _, member := c.seen[v]; member {
			c = g.ownColl(name, c)
			delete(c.seen, v)
			c.members = dropValue(c.members, v)
		}
	}
	delete(g.nodes, id)
	delete(g.ownedNodes, id)
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
	c = g.ownColl(name, c)
	delete(c.seen, v)
	c.members = dropValue(c.members, v)
	return true
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
