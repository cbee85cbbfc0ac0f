// Change logging: a Graph can journal its mutations into attached
// ChangeLogs, giving incremental consumers an exact record of what
// changed between two points in time — no O(graph) Diff required. The
// site builder drains its journal on every rebuild under SetDataGraph:
// OpsDelta keys the noop test and the schema impact analysis, and an
// overflowed journal names a full rebuild's cause. Composite mutations
// (RemoveNode) are journaled as their constituent edge/membership
// removals followed by the node removal itself.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// OpKind discriminates journal entries.
type OpKind uint8

// Journal entry kinds. RemoveNode emits OpRemoveEdge/OpRemoveMember
// entries for every edge and membership it cascades over, then one
// OpRemoveNode.
const (
	OpAddEdge OpKind = iota
	OpRemoveEdge
	OpAddMember
	OpRemoveMember
	OpAddNode
	OpRemoveNode
	OpNewCollection
)

func (k OpKind) String() string {
	return [...]string{"add-edge", "remove-edge", "add-member", "remove-member",
		"add-node", "remove-node", "new-collection"}[k]
}

// Op is one journaled mutation.
type Op struct {
	Kind OpKind
	// Edge is set for OpAddEdge/OpRemoveEdge.
	Edge Edge
	// Coll and Member are set for OpAddMember/OpRemoveMember; Coll alone
	// for OpNewCollection.
	Coll   string
	Member Value
	// Node is set for OpAddNode/OpRemoveNode.
	Node OID
	// Name is the symbolic name of the touched object when one was
	// bound at log time (the edge source, the member node, or the node
	// itself) — captured here because the node may be gone by the time
	// the log is consumed.
	Name string
}

// defaultLogLimit bounds a ChangeLog's buffered ops. Past it the log
// overflows: Take reports the journal as unusable and the consumer
// must fall back to a full recomputation.
const defaultLogLimit = 1 << 20

// ChangeLog accumulates a graph's mutations between Take calls. It has
// its own lock (never the graph's), so readers of the log and writers
// of the graph do not contend beyond the append itself.
type ChangeLog struct {
	mu       sync.Mutex
	ops      []Op
	overflow bool
	limit    int
}

// NewChangeLog creates an empty change log.
func NewChangeLog() *ChangeLog {
	return &ChangeLog{limit: defaultLogLimit}
}

func (l *ChangeLog) add(op Op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.overflow {
		return
	}
	if len(l.ops) >= l.limit {
		l.overflow = true
		l.ops = nil
		return
	}
	l.ops = append(l.ops, op)
}

// Take drains the log, returning the buffered ops in mutation order.
// ok is false when the log overflowed since the last Take — the ops
// are incomplete and the caller must treat the change as unbounded.
// Either way the log is reset.
func (l *ChangeLog) Take() (ops []Op, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops, ok = l.ops, !l.overflow
	l.ops, l.overflow = nil, false
	return ops, ok
}

// Watch attaches a change log to the graph: every subsequent mutation
// is journaled into it. Multiple logs may watch one graph.
func (g *Graph) Watch(l *ChangeLog) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, w := range g.watchers {
		if w == l {
			return
		}
	}
	g.watchers = append(g.watchers, l)
}

// Unwatch detaches a change log.
func (g *Graph) Unwatch(l *ChangeLog) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, w := range g.watchers {
		if w == l {
			g.watchers = append(g.watchers[:i:i], g.watchers[i+1:]...)
			return
		}
	}
}

// logOp journals one op to every watcher. Called with g.mu held; the
// per-log lock never takes g.mu, so the order is deadlock-free.
func (g *Graph) logOp(op Op) {
	for _, w := range g.watchers {
		w.add(op)
	}
}

// nameOfLocked returns a node's symbolic name. Caller holds g.mu.
func (g *Graph) nameOfLocked(id OID) string {
	if nd, ok := g.nodes[id]; ok {
		return nd.name
	}
	return ""
}

// OpsDelta summarizes a journal as a graph.Delta, for consumers keyed
// on the coarser delta representation (schema impact analysis). Ops
// without a recoverable name still contribute their labels and
// collections, which is what the schema analysis keys on.
func OpsDelta(ops []Op) *Delta {
	d := &Delta{}
	seen := map[string]map[string]struct{}{}
	addName := func(kind, name string) {
		if name == "" {
			return
		}
		set, ok := seen[kind]
		if !ok {
			set = map[string]struct{}{}
			seen[kind] = set
		}
		if _, dup := set[name]; dup {
			return
		}
		set[name] = struct{}{}
		switch kind {
		case "added":
			d.AddedObjects = append(d.AddedObjects, name)
		case "removed":
			d.RemovedObjects = append(d.RemovedObjects, name)
		default:
			d.ChangedObjects = append(d.ChangedObjects, name)
		}
	}
	// Unnamed objects fall back to their OID key, matching Diff's
	// convention.
	keyOr := func(name string, id OID) string {
		if name != "" {
			return name
		}
		return fmt.Sprintf("&%d", uint64(id))
	}
	labels := map[string]struct{}{}
	colls := map[string]struct{}{}
	for _, op := range ops {
		switch op.Kind {
		case OpAddEdge, OpRemoveEdge:
			addName("changed", keyOr(op.Name, op.Edge.From))
			labels[op.Edge.Label] = struct{}{}
		case OpAddMember, OpRemoveMember:
			if op.Member.IsNode() {
				addName("changed", keyOr(op.Name, op.Member.OID()))
			}
			colls[op.Coll] = struct{}{}
		case OpAddNode:
			addName("added", keyOr(op.Name, op.Node))
		case OpRemoveNode:
			addName("removed", keyOr(op.Name, op.Node))
		case OpNewCollection:
			colls[op.Coll] = struct{}{}
		}
	}
	for l := range labels {
		d.TouchedLabels = append(d.TouchedLabels, l)
	}
	for c := range colls {
		d.TouchedCollections = append(d.TouchedCollections, c)
	}
	sort.Strings(d.AddedObjects)
	sort.Strings(d.RemovedObjects)
	sort.Strings(d.ChangedObjects)
	sort.Strings(d.TouchedLabels)
	sort.Strings(d.TouchedCollections)
	return d
}
