package graph

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Delta describes the difference between two graphs at object
// granularity. Objects are identified by symbolic node name where one
// exists; unnamed nodes fall back to their OID key ("&17"), which makes
// cross-rebuild comparison of unnamed objects conservative: an unnamed
// object whose OID shifted between builds is reported as one removal
// plus one addition.
//
// An object is "changed" when its canonical out-edge set or its
// collection memberships differ between the two graphs. TouchedLabels
// holds every edge label that appears in the symmetric difference of
// edge sets (plus all labels of added and removed objects);
// TouchedCollections holds every collection whose membership changed.
type Delta struct {
	AddedObjects       []string
	RemovedObjects     []string
	ChangedObjects     []string
	TouchedLabels      []string
	TouchedCollections []string
}

// Empty reports whether the delta records no difference at all.
func (d *Delta) Empty() bool {
	return d == nil ||
		(len(d.AddedObjects) == 0 && len(d.RemovedObjects) == 0 &&
			len(d.ChangedObjects) == 0 && len(d.TouchedLabels) == 0 &&
			len(d.TouchedCollections) == 0)
}

// HasLabel reports whether edges with the given label changed.
func (d *Delta) HasLabel(label string) bool {
	if d == nil {
		return false
	}
	for _, l := range d.TouchedLabels {
		if l == label {
			return true
		}
	}
	return false
}

// HasCollection reports whether the named collection's membership
// changed.
func (d *Delta) HasCollection(name string) bool {
	if d == nil {
		return false
	}
	for _, c := range d.TouchedCollections {
		if c == name {
			return true
		}
	}
	return false
}

// AnyEdgeChange reports whether any edge — of any label — was added or
// removed. It is the trigger for conditions that are sensitive to the
// whole active domain (unconstrained arc variables, negation).
func (d *Delta) AnyEdgeChange() bool {
	return d != nil && len(d.TouchedLabels) > 0
}

// Objects returns every affected object key (added, removed and
// changed), sorted.
func (d *Delta) Objects() []string {
	if d == nil {
		return nil
	}
	out := make([]string, 0, len(d.AddedObjects)+len(d.RemovedObjects)+len(d.ChangedObjects))
	out = append(out, d.AddedObjects...)
	out = append(out, d.RemovedObjects...)
	out = append(out, d.ChangedObjects...)
	sort.Strings(out)
	return out
}

// Summary renders a compact one-line description for logs.
func (d *Delta) Summary() string {
	if d.Empty() {
		return "delta: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "delta: +%d -%d ~%d objects",
		len(d.AddedObjects), len(d.RemovedObjects), len(d.ChangedObjects))
	if len(d.TouchedLabels) > 0 {
		fmt.Fprintf(&b, ", labels %s", strings.Join(d.TouchedLabels, ","))
	}
	if len(d.TouchedCollections) > 0 {
		fmt.Fprintf(&b, ", collections %s", strings.Join(d.TouchedCollections, ","))
	}
	return b.String()
}

// objSnap is one object's canonical comparison form: its out-edge keys
// in out-list order, each prefixed with its length, in one string; and
// the collections it belongs to. An edge key is the label, a NUL, then
// the KindNode byte and the target's Key or the atom's AppendKey
// encoding. Equal encodings mean equal edge sets; only where two
// encodings differ does DiffScope build the sets, so an out-list that
// was only reordered still compares as unchanged.
type objSnap struct {
	edges   string
	members map[string]struct{}
}

// keys yields the edge keys of the encoding, in out-list order.
func (s *objSnap) keys(yield func(string) bool) {
	for e := s.edges; len(e) > 0; {
		n, w := binary.Uvarint([]byte(e[:min(len(e), binary.MaxVarintLen64)]))
		if !yield(e[w : w+int(n)]) {
			return
		}
		e = e[w+int(n):]
	}
}

// edgeSet returns the set of the encoding's edge keys.
func (s *objSnap) edgeSet() map[string]struct{} {
	set := map[string]struct{}{}
	for k := range s.keys {
		set[k] = struct{}{}
	}
	return set
}

// Scope names the objects (by key, see Graph.Key) and collections a
// diff looks at.
type Scope struct {
	Objects     []string
	Collections []string
}

// snapshot captures the scoped part of a graph (all of it when scope
// is nil) in identity-keyed canonical form: objects and edge targets
// are named by Key.
func (g *Graph) snapshot(scope *Scope) (objs map[string]*objSnap, colls map[string]map[string]struct{}) {
	g.mu.RLock()
	defer g.mu.RUnlock()

	key := g.keyLocked
	if scope == nil {
		keyOf := make(map[OID]string, len(g.nodes))
		for id := range g.nodes {
			keyOf[id] = g.keyLocked(id)
		}
		key = func(id OID) string {
			if k, ok := keyOf[id]; ok {
				return k
			}
			return g.keyLocked(id)
		}
	}
	var buf, enc []byte
	snap := func(s *objSnap, nd *nodeData) *objSnap {
		enc = enc[:0]
		for i := range nd.out {
			e := &nd.out[i]
			buf = append(append(buf[:0], e.Label...), 0)
			if e.To.IsNode() {
				buf = append(append(buf, byte(KindNode)), key(e.To.OID())...)
			} else {
				buf = e.To.AppendKey(buf)
			}
			enc = append(binary.AppendUvarint(enc, uint64(len(buf))), buf...)
		}
		s.edges = string(enc)
		return s
	}
	// A node member is keyed as objs is, an atom by its encoding.
	snapColl := func(name string, c *collection) {
		set := make(map[string]struct{}, len(c.members))
		for _, v := range c.members {
			if !v.IsNode() {
				buf = v.AppendKey(buf[:0])
				set[string(buf)] = struct{}{}
				continue
			}
			k := key(v.OID())
			set[k] = struct{}{}
			if s, ok := objs[k]; ok {
				s.addMember(name)
			}
		}
		colls[name] = set
	}

	if scope == nil {
		objs = make(map[string]*objSnap, len(g.nodes))
		snaps := make([]objSnap, len(g.nodes))
		i := 0
		for id, nd := range g.nodes {
			objs[key(id)] = snap(&snaps[i], nd)
			i++
		}
		colls = make(map[string]map[string]struct{}, len(g.colls))
		for name, c := range g.colls {
			snapColl(name, c)
		}
		return objs, colls
	}

	objs = make(map[string]*objSnap, len(scope.Objects))
	for _, k := range scope.Objects {
		id, ok := g.resolveKeyLocked(k)
		if !ok || key(id) != k {
			continue // not an object of this graph
		}
		s := snap(&objSnap{}, g.nodes[id])
		for name, c := range g.colls {
			if _, member := c.seen[NodeValue(id)]; member {
				s.addMember(name)
			}
		}
		objs[k] = s
	}
	colls = make(map[string]map[string]struct{}, len(scope.Collections))
	for _, name := range scope.Collections {
		if c, ok := g.colls[name]; ok {
			snapColl(name, c)
		}
	}
	return objs, colls
}

func (s *objSnap) addMember(coll string) {
	if s.members == nil {
		s.members = make(map[string]struct{})
	}
	s.members[coll] = struct{}{}
}

// Diff computes the object-level delta from old to new. A nil old graph
// yields a delta in which every object of new is added; a nil new graph
// marks every object of old removed. Graphs that share records (new is
// a copy of old, or both merged the same sources; see Merge) are
// diffed over what they do not share (sharedScope), so the cost is
// that of what differs; graphs that share no record take the full
// diff.
func Diff(old, new *Graph) *Delta {
	if old == new && old != nil {
		return &Delta{} // and sharedScope must not lock one graph twice
	}
	if old != nil && new != nil {
		if scope := sharedScope(old, new); scope != nil {
			return DiffScope(old, new, scope)
		}
	}
	return DiffScope(old, new, nil)
}

// sharedScope returns a scope that covers every object and collection
// whose canonical form differs between two graphs that share records,
// or nil when they share none. A node whose record both graphs share
// has the same out-edges in both, and a shared collection record the
// same members, so only three things can differ:
//   - the nodes whose records differ, present on one side included;
//   - a node whose key moved, and with it every node with an edge into
//     it on either side and every collection holding it. A key reads
//     the node's alias and whether its creation name is bound to it, so
//     it can move only where the two graphs' alias or name tables
//     differ;
//   - a collection whose record differs, and the nodes that joined or
//     left it.
//
// Both graphs are read-locked in graph-id order, as Merge locks them.
func sharedScope(old, new *Graph) *Scope {
	first, second := inIDOrder(old, new)
	first.mu.RLock()
	defer first.mu.RUnlock()
	second.mu.RLock()
	defer second.mu.RUnlock()

	if !sharesRecords(old, new) {
		return nil
	}
	objs, colls := map[string]struct{}{}, map[string]struct{}{}
	addKeys := func(id OID) {
		for _, g := range [...]*Graph{old, new} {
			if _, ok := g.nodes[id]; ok {
				objs[g.keyLocked(id)] = struct{}{}
			}
		}
	}
	for id, nd := range new.nodes {
		if old.nodes[id] != nd {
			addKeys(id)
		}
	}
	for id := range old.nodes {
		if _, ok := new.nodes[id]; !ok {
			addKeys(id)
		}
	}

	moved := map[OID]struct{}{}
	for _, p := range [...]struct{ a, b *Graph }{{old, new}, {new, old}} {
		for id, alias := range p.a.aliases {
			if other, ok := p.b.aliases[id]; !ok || other != alias {
				moved[id] = struct{}{}
			}
		}
		for name, id := range p.a.names {
			if other, ok := p.b.names[name]; !ok || other != id {
				moved[id] = struct{}{}
				if ok {
					moved[other] = struct{}{}
				}
			}
		}
	}
	for id := range moved {
		on, inOld := old.nodes[id]
		nn, inNew := new.nodes[id]
		if !inOld || !inNew || old.keyLocked(id) == new.keyLocked(id) {
			continue // an added or removed node is in scope already
		}
		addKeys(id)
		v := NodeValue(id)
		for _, side := range [...]struct {
			g  *Graph
			nd *nodeData
		}{{old, on}, {new, nn}} {
			for _, e := range side.nd.in {
				addKeys(e.From)
			}
			for name, c := range side.g.colls {
				if _, member := c.seen[v]; member {
					colls[name] = struct{}{}
				}
			}
		}
	}

	for _, p := range [...]struct{ a, b *Graph }{{old, new}, {new, old}} {
		for name, c := range p.a.colls {
			other := p.b.colls[name]
			if other == c {
				continue
			}
			colls[name] = struct{}{}
			for _, v := range c.members {
				if !v.IsNode() {
					continue
				}
				if other != nil {
					if _, member := other.seen[v]; member {
						continue
					}
				}
				addKeys(v.OID())
			}
		}
	}
	return &Scope{Objects: slices.Collect(maps.Keys(objs)), Collections: slices.Collect(maps.Keys(colls))}
}

// sharesRecords reports whether two graphs share any node or
// collection record. Caller holds both graphs' locks.
func sharesRecords(a, b *Graph) bool {
	for id, nd := range a.nodes {
		if b.nodes[id] == nd {
			return true
		}
	}
	for name, c := range a.colls {
		if b.colls[name] == c {
			return true
		}
	}
	return false
}

// DiffScope computes the part of Diff(old, new) that concerns the
// objects and collections in scope: only those can appear in the
// result, and TouchedLabels holds only labels of their edges. When the
// scope covers every object and collection whose canonical form
// differs between the graphs, the result equals Diff(old, new) — which
// is DiffScope with a nil scope, covering everything. The cost is then
// proportional to the scope, not to the graphs.
func DiffScope(old, new *Graph, scope *Scope) *Delta {
	var (
		oldObjs  map[string]*objSnap
		oldColls map[string]map[string]struct{}
		newObjs  map[string]*objSnap
		newColls map[string]map[string]struct{}
	)
	if old != nil {
		oldObjs, oldColls = old.snapshot(scope)
	}
	if new != nil {
		newObjs, newColls = new.snapshot(scope)
	}

	d := &Delta{}
	labels := map[string]struct{}{}
	touch := func(edgeKey string) {
		if i := strings.IndexByte(edgeKey, 0); i >= 0 {
			labels[edgeKey[:i]] = struct{}{}
		}
	}
	sameSet := func(a, b map[string]struct{}) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if _, ok := b[k]; !ok {
				return false
			}
		}
		return true
	}

	for key, ns := range newObjs {
		os, ok := oldObjs[key]
		if !ok {
			d.AddedObjects = append(d.AddedObjects, key)
			for k := range ns.keys {
				touch(k)
			}
			continue
		}
		// Out-lists in the same order are the common case; only a
		// difference in order or content needs the two edge sets.
		var oldEdges, newEdges map[string]struct{}
		sameEdges := os.edges == ns.edges
		if !sameEdges {
			oldEdges, newEdges = os.edgeSet(), ns.edgeSet()
			sameEdges = sameSet(oldEdges, newEdges)
		}
		if sameEdges && sameSet(os.members, ns.members) {
			continue
		}
		d.ChangedObjects = append(d.ChangedObjects, key)
		if !sameEdges {
			// Symmetric difference of the edge sets.
			for k := range newEdges {
				if _, dup := oldEdges[k]; !dup {
					touch(k)
				}
			}
			for k := range oldEdges {
				if _, dup := newEdges[k]; !dup {
					touch(k)
				}
			}
		}
	}
	for key, os := range oldObjs {
		if _, ok := newObjs[key]; !ok {
			d.RemovedObjects = append(d.RemovedObjects, key)
			for k := range os.keys {
				touch(k)
			}
		}
	}

	collSet := map[string]struct{}{}
	for name, ns := range newColls {
		if os, ok := oldColls[name]; !ok || !sameSet(os, ns) {
			collSet[name] = struct{}{}
		}
	}
	for name := range oldColls {
		if _, ok := newColls[name]; !ok {
			collSet[name] = struct{}{}
		}
	}

	for l := range labels {
		d.TouchedLabels = append(d.TouchedLabels, l)
	}
	for c := range collSet {
		d.TouchedCollections = append(d.TouchedCollections, c)
	}
	sort.Strings(d.AddedObjects)
	sort.Strings(d.RemovedObjects)
	sort.Strings(d.ChangedObjects)
	sort.Strings(d.TouchedLabels)
	sort.Strings(d.TouchedCollections)
	return d
}

// ResolveKey maps a Delta object key back to an OID in this graph.
// Symbolic names take precedence; "&17"-style keys resolve by OID.
func (g *Graph) ResolveKey(key string) (OID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.resolveKeyLocked(key)
}

func (g *Graph) resolveKeyLocked(key string) (OID, bool) {
	if id, ok := g.names[key]; ok {
		return id, true
	}
	if strings.HasPrefix(key, "&") {
		n, err := strconv.ParseUint(key[1:], 10, 64)
		if _, ok := g.nodes[OID(n)]; err == nil && ok {
			return OID(n), true
		}
	}
	return InvalidOID, false
}

// ReverseReachable returns every node from which any start node can be
// reached by following node-to-node edges (the starts themselves
// included). It is the dependency cone used to decide which pages can
// observe a change: a page whose subtree embeds or links a changed
// object lies on a reverse path from it.
func (g *Graph) ReverseReachable(starts []OID) map[OID]struct{} {
	seen := map[OID]struct{}{}
	var stack []OID
	for _, s := range starts {
		if !g.HasNode(s) {
			continue
		}
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.In(n) {
			if _, ok := seen[e.From]; !ok {
				seen[e.From] = struct{}{}
				stack = append(stack, e.From)
			}
		}
	}
	return seen
}
