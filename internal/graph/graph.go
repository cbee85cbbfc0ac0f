package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Edge is one labeled directed edge. From is always a node; To may be
// a node or an atomic value.
type Edge struct {
	From  OID
	Label string
	To    Value
}

func (e Edge) String() string {
	return fmt.Sprintf("&%d -%q-> %s", uint64(e.From), e.Label, e.To)
}

// Graph is one labeled directed graph: a set of nodes, labeled edges,
// and named collections of objects. Graphs belonging to the same
// Database share an OID space and may share objects, and Merge shares
// node and collection records between them copy-on-write. All methods
// are safe for concurrent use.
type Graph struct {
	mu    sync.RWMutex
	name  string
	alloc *oidAllocator
	// id orders the locks of two graphs that one call holds (inIDOrder).
	id uint64

	nodes map[OID]*nodeData
	// names maps a symbolic node name ("pub1", "RootPage()") to its OID.
	names map[string]OID
	// aliases holds the key (see Key) of each node that had a name
	// bound after it was created, by AddNode on a present node. Every
	// other node is keyed by its creation name when that name is bound
	// to it. Nil until needed.
	aliases map[OID]string
	colls   map[string]*collection
	// edgeCount caches the total number of edges for Stats.
	edgeCount int

	// shares is set once the graph shares records with another graph,
	// on either side of a Merge. Until then every record is its own and
	// is written in place. From then on only the records in ownedNodes
	// and ownedColls are, the ones it made or cloned since: any other
	// may be another graph's too, so a write clones it first (ownNode,
	// ownColl). A record two graphs share is thus never written again.
	shares     bool
	ownedNodes map[OID]struct{}
	ownedColls map[string]struct{}
}

type nodeData struct {
	name string
	out  []Edge
	in   []Edge // reverse adjacency; only edges whose To is a node land here
}

type collection struct {
	members []Value
	seen    map[Value]struct{}
}

// graphIDs numbers graphs for inIDOrder.
var graphIDs atomic.Uint64

// newNodeLocked stores a fresh record for node id and returns it.
// Caller holds g.mu for writing.
func (g *Graph) newNodeLocked(id OID, name string) *nodeData {
	nd := &nodeData{name: name}
	g.nodes[id] = nd
	if g.shares {
		g.ownedNodes[id] = struct{}{}
	}
	return nd
}

// newCollLocked stores a fresh, empty collection record.
func (g *Graph) newCollLocked(name string) *collection {
	c := &collection{seen: make(map[Value]struct{})}
	g.colls[name] = c
	if g.shares {
		g.ownedColls[name] = struct{}{}
	}
	return c
}

// ownNode returns a record of node id that g may write in place: nd,
// g's record of id, when g owns it, else a clone that replaces it. A
// clone's slices are clipped to their length, so an append reallocates
// instead of writing into an array another graph reads. Caller holds
// g.mu for writing.
func (g *Graph) ownNode(id OID, nd *nodeData) *nodeData {
	if !g.shares {
		return nd
	}
	if _, owned := g.ownedNodes[id]; owned {
		return nd
	}
	c := &nodeData{name: nd.name, out: slices.Clip(nd.out), in: slices.Clip(nd.in)}
	g.nodes[id] = c
	g.ownedNodes[id] = struct{}{}
	return c
}

// ownColl is ownNode for collection records.
func (g *Graph) ownColl(name string, c *collection) *collection {
	if !g.shares {
		return c
	}
	if _, owned := g.ownedColls[name]; owned {
		return c
	}
	cc := &collection{members: slices.Clip(c.members), seen: maps.Clone(c.seen)}
	g.colls[name] = cc
	g.ownedColls[name] = struct{}{}
	return cc
}

// share marks g as sharing records with another graph: from now on it
// writes in place only what it makes or clones. Caller holds g.mu for
// writing.
func (g *Graph) share() {
	g.shares = true
	g.ownedNodes = map[OID]struct{}{}
	g.ownedColls = map[string]struct{}{}
}

// inIDOrder returns two graphs in graph-id order. Every operation that
// holds two graphs' locks (Merge, Diff) takes them in this order, so no
// two can deadlock.
func inIDOrder(a, b *Graph) (*Graph, *Graph) {
	if b.id < a.id {
		return b, a
	}
	return a, b
}

// oidAllocator hands out database-unique OIDs.
type oidAllocator struct {
	mu   sync.Mutex
	next OID
}

func newAllocator() *oidAllocator { return &oidAllocator{next: 1} }

func (a *oidAllocator) take() OID {
	a.mu.Lock()
	defer a.mu.Unlock()
	id := a.next
	a.next++
	return id
}

// reserve advances the allocator past id so externally supplied OIDs
// (e.g. loaded from a snapshot) never collide with fresh ones.
func (a *oidAllocator) reserve(id OID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id >= a.next {
		a.next = id + 1
	}
}

// New creates a standalone graph with its own OID space.
func New(name string) *Graph {
	return newGraph(name, newAllocator())
}

// NewSibling creates a graph sharing g's OID space, so the two graphs
// can share objects (e.g. a site graph derived from a data graph).
func (g *Graph) NewSibling(name string) *Graph {
	return newGraph(name, g.alloc)
}

// Merge adds src's nodes, edges, name bindings and collections to g,
// keeping their OIDs, creation names (NodeName), out-edge order and
// collection member order, so the two graphs must share an OID space.
// A node or collection g lacks takes src's record itself, which copies
// no edge: the record becomes shared, and whichever graph writes it
// next, src included, first clones it, so each graph keeps its own
// view. What g already has stays: merged sources union, and a name g
// has bound keeps its node. Merged into an empty sibling
// (src.NewSibling(src.Name())), src is copied in O(nodes): a graph a
// build has read is never edited, and a copy takes the edits instead.
func (g *Graph) Merge(src *Graph) {
	if g == src {
		return
	}
	// Sharing src's records changes what src may write in place, so src
	// is locked for writing too.
	first, second := inIDOrder(g, src)
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	var top OID
	var present []OID // src's nodes g has with a record of its own
	if len(g.nodes) > 0 {
		for id, nd := range src.nodes {
			if gn, ok := g.nodes[id]; ok && gn != nd {
				present = append(present, id)
			}
		}
	}
	// Union src's edges into the present nodes before the nodes g lacks
	// are taken below, while g still tells them apart: a node g lacks
	// takes src's record, whose in-list already lists every src edge
	// into it, and a node whose record g shares with src already has
	// every src edge into and out of it.
	slices.Sort(present)
	for _, id := range present {
		for _, e := range src.nodes[id].out {
			if e.To.IsNode() {
				tn, ok := g.nodes[e.To.OID()]
				if !ok {
					nd := g.ownNode(id, g.nodes[id])
					nd.out = append(nd.out, e)
					g.edgeCount++
					continue
				}
				if tn == src.nodes[e.To.OID()] {
					continue
				}
			}
			g.addEdgeLocked(g.nodes[id], e)
		}
	}
	for _, id := range present {
		for _, e := range src.nodes[id].in {
			if _, ok := g.nodes[e.From]; !ok {
				nd := g.ownNode(id, g.nodes[id])
				nd.in = append(nd.in, e)
			}
		}
	}
	for id, nd := range src.nodes {
		top = max(top, id)
		if _, ok := g.nodes[id]; ok {
			continue
		}
		g.nodes[id] = nd
		g.edgeCount += len(nd.out)
	}
	if top != InvalidOID {
		g.alloc.reserve(top)
	}
	for name, id := range src.names {
		if _, bound := g.names[name]; !bound {
			g.bindLocked(name, id)
		}
	}
	for name, c := range src.colls {
		gc, ok := g.colls[name]
		if !ok {
			g.colls[name] = c
			continue
		}
		for _, v := range c.members {
			if _, dup := gc.seen[v]; !dup {
				gc = g.ownColl(name, gc)
				gc.seen[v] = struct{}{}
				gc.members = append(gc.members, v)
			}
		}
	}
	// Both graphs now hold records the other holds. A target that shared
	// nothing before gives up writing its own records in place too,
	// which costs at most one clone per record it writes later.
	if !g.shares {
		g.share()
	}
	src.share()
}

func newGraph(name string, alloc *oidAllocator) *Graph {
	return &Graph{
		name:  name,
		alloc: alloc,
		id:    graphIDs.Add(1),
		nodes: make(map[OID]*nodeData),
		names: make(map[string]OID),
		colls: make(map[string]*collection),
	}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NewNode allocates a fresh node with an optional symbolic name and
// returns its OID. If the name is already bound the existing node is
// returned; an empty name never binds.
func (g *Graph) NewNode(name string) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if name != "" {
		if id, ok := g.names[name]; ok {
			return id
		}
	}
	id := g.alloc.take()
	g.newNodeLocked(id, name)
	if name != "" {
		g.names[name] = id
	}
	return id
}

// AddNode inserts an existing node (same database, e.g. an object
// shared with another graph) into this graph. It is a no-op if the
// node is already present.
func (g *Graph) AddNode(id OID, name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.alloc.reserve(id)
	if _, present := g.nodes[id]; !present {
		g.newNodeLocked(id, name)
	}
	if name != "" {
		if _, bound := g.names[name]; !bound {
			g.bindLocked(name, id)
		}
	}
}

// bindLocked binds an unbound name to node id, a node of g, keeping
// the node's key (Key) the smallest name bound to it. Caller holds g.mu
// for writing.
func (g *Graph) bindLocked(name string, id OID) {
	key, named := g.nameKeyLocked(id)
	g.names[name] = id
	if named && name >= key || !named && name == g.nodes[id].name {
		return
	}
	if g.aliases == nil {
		g.aliases = map[OID]string{}
	}
	g.aliases[id] = name
}

// Key returns the node's object key, the identity Diff names it by:
// the lexicographically smallest symbolic name bound to it, else its
// OID key ("&17").
func (g *Graph) Key(id OID) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.keyLocked(id)
}

func (g *Graph) keyLocked(id OID) string {
	if key, named := g.nameKeyLocked(id); named {
		return key
	}
	return "&" + strconv.FormatUint(uint64(id), 10)
}

// nameKeyLocked returns the smallest name bound to a node, if any.
// Caller holds g.mu.
func (g *Graph) nameKeyLocked(id OID) (string, bool) {
	if key, ok := g.aliases[id]; ok {
		return key, true
	}
	if nd, ok := g.nodes[id]; ok && nd.name != "" {
		if bound, ok := g.names[nd.name]; ok && bound == id {
			return nd.name, true
		}
	}
	return "", false
}

// HasNode reports whether the node belongs to this graph.
func (g *Graph) HasNode(id OID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes[id]
	return ok
}

// NodeName returns the symbolic name of a node, or "" if unnamed.
func (g *Graph) NodeName(id OID) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if nd, ok := g.nodes[id]; ok {
		return nd.name
	}
	return ""
}

// NodeByName resolves a symbolic node name.
func (g *Graph) NodeByName(name string) (OID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.names[name]
	return id, ok
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edgeCount
}

// Nodes returns all node OIDs in ascending order.
func (g *Graph) Nodes() []OID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]OID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddEdge adds a labeled edge from a node to a value. The target node
// of a node-valued edge is implicitly added to the graph if missing
// (graphs of the same database may share objects). Duplicate edges
// (same from, label, to) are ignored. A node-valued edge is in both the
// source's out-list and the target's in-list, so the duplicate check
// reads the shorter of the two: adding d edges from a hub to nodes of
// small in-degree costs O(d), not O(d²).
func (g *Graph) AddEdge(from OID, label string, to Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	nd, ok := g.nodes[from]
	if !ok {
		return fmt.Errorf("graph %q: edge source &%d is not a node of this graph", g.name, uint64(from))
	}
	if to.IsZero() {
		return fmt.Errorf("graph %q: edge %q from &%d has invalid target", g.name, label, uint64(from))
	}
	g.addEdgeLocked(nd, Edge{From: from, Label: label, To: to})
	return nil
}

// addEdgeLocked is AddEdge's body: nd is g's record of e.From. Caller
// holds g.mu for writing.
func (g *Graph) addEdgeLocked(nd *nodeData, e Edge) {
	var tn *nodeData
	if e.To.IsNode() {
		tn = g.nodes[e.To.OID()]
	}
	if tn != nil && len(tn.in) < len(nd.out) {
		for i := range tn.in {
			if in := &tn.in[i]; in.From == e.From && in.Label == e.Label {
				return
			}
		}
	} else {
		for i := range nd.out {
			if out := &nd.out[i]; out.Label == e.Label && out.To == e.To {
				return
			}
		}
	}
	nd = g.ownNode(e.From, nd)
	if e.To.IsNode() {
		g.alloc.reserve(e.To.OID())
		if tn == nil {
			tn = g.newNodeLocked(e.To.OID(), "")
		} else {
			// Re-read: a self-edge's record was owned just above.
			tn = g.ownNode(e.To.OID(), g.nodes[e.To.OID()])
		}
		tn.in = append(tn.in, e)
	}
	nd.out = append(nd.out, e)
	g.edgeCount++
}

// EachOut calls fn for each outgoing edge of a node, in insertion
// order, without copying. Iteration stops early if fn returns false.
// fn must not mutate the graph (a writer blocked between fn calls
// would deadlock readers).
func (g *Graph) EachOut(id OID, fn func(Edge) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nd, ok := g.nodes[id]
	if !ok {
		return
	}
	for _, e := range nd.out {
		if !fn(e) {
			return
		}
	}
}

// Out returns the outgoing edges of a node, in insertion order.
func (g *Graph) Out(id OID) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nd, ok := g.nodes[id]
	if !ok {
		return nil
	}
	out := make([]Edge, len(nd.out))
	copy(out, nd.out)
	return out
}

// OutLabel returns the values reachable from a node via edges with the
// given label, in insertion order.
func (g *Graph) OutLabel(id OID, label string) []Value {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nd, ok := g.nodes[id]
	if !ok {
		return nil
	}
	var vals []Value
	for _, e := range nd.out {
		if e.Label == label {
			vals = append(vals, e.To)
		}
	}
	return vals
}

// First returns the first value of the given attribute, if any. It is
// the single-valued attribute accessor used by the template language.
func (g *Graph) First(id OID, label string) (Value, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nd, ok := g.nodes[id]
	if !ok {
		return Value{}, false
	}
	for _, e := range nd.out {
		if e.Label == label {
			return e.To, true
		}
	}
	return Value{}, false
}

// In returns the incoming node-to-node edges of a node.
func (g *Graph) In(id OID) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	nd, ok := g.nodes[id]
	if !ok {
		return nil
	}
	in := make([]Edge, len(nd.in))
	copy(in, nd.in)
	return in
}

// Edges calls fn for every edge in the graph, grouped by source node
// in ascending OID order. Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for _, id := range g.Nodes() {
		for _, e := range g.Out(id) {
			if !fn(e) {
				return
			}
		}
	}
}

// AllEdges returns every edge, grouped by source node in ascending
// OID order.
func (g *Graph) AllEdges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Labels returns the distinct edge labels in the graph, sorted. This
// is a schema query: the repository also maintains a label index, but
// the graph can always answer from first principles.
func (g *Graph) Labels() []string {
	g.mu.RLock()
	set := make(map[string]struct{})
	for _, nd := range g.nodes {
		for _, e := range nd.out {
			set[e.Label] = struct{}{}
		}
	}
	g.mu.RUnlock()
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// AddToCollection inserts a value into a named collection, creating
// the collection if needed. Duplicates are ignored, and so is the
// invalid zero Value, which AddEdge refuses as an edge target: no
// member of a collection is ever the zero Value.
func (g *Graph) AddToCollection(name string, v Value) {
	if v.IsZero() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.colls[name]
	if !ok {
		c = g.newCollLocked(name)
	}
	if _, dup := c.seen[v]; dup {
		return
	}
	c = g.ownColl(name, c)
	c.seen[v] = struct{}{}
	c.members = append(c.members, v)
	if v.IsNode() {
		g.alloc.reserve(v.OID())
		if _, present := g.nodes[v.OID()]; !present {
			g.newNodeLocked(v.OID(), "")
		}
	}
}

// DeclareCollection ensures a (possibly empty) collection exists.
func (g *Graph) DeclareCollection(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.colls[name]; !ok {
		g.newCollLocked(name)
	}
}

// Collection returns the members of a collection in insertion order.
func (g *Graph) Collection(name string) []Value {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.colls[name]
	if !ok {
		return nil
	}
	out := make([]Value, len(c.members))
	copy(out, c.members)
	return out
}

// InCollection reports membership of a value in a collection.
func (g *Graph) InCollection(name string, v Value) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.colls[name]
	if !ok {
		return false
	}
	_, member := c.seen[v]
	return member
}

// Collections returns the collection names, sorted. These are the
// entry points into the graph's objects.
func (g *Graph) Collections() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.colls))
	for n := range g.colls {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasCollection reports whether a collection is declared.
func (g *Graph) HasCollection(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.colls[name]
	return ok
}

// Stats summarizes the size of a graph.
type Stats struct {
	Nodes       int
	Edges       int
	Collections int
	Labels      int
}

// Stats computes the graph's size summary.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Collections: len(g.Collections()),
		Labels:      len(g.Labels()),
	}
}

// Reachable returns the set of nodes reachable from start by following
// node-to-node edges (including start itself).
func (g *Graph) Reachable(start OID) map[OID]struct{} {
	seen := map[OID]struct{}{}
	if !g.HasNode(start) {
		return seen
	}
	stack := []OID{start}
	seen[start] = struct{}{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(n) {
			if e.To.IsNode() {
				t := e.To.OID()
				if _, ok := seen[t]; !ok {
					seen[t] = struct{}{}
					stack = append(stack, t)
				}
			}
		}
	}
	return seen
}
