// Page provenance: which source objects, attributes and binding
// tuples each constructed node came from. The paper's Skolem-function
// semantics make this natural — every output node is F(args) for
// source arguments — and recording it during construction answers
// "why does this page exist and what does it depend on" exactly, the
// same dependency the incremental rebuilder acts on.
package struql

import (
	"sort"
	"strings"
	"sync"

	"strudel/internal/graph"
)

// SourceRef names one data-graph object a constructed node consumed.
type SourceRef struct {
	OID  graph.OID `json:"oid"`
	Name string    `json:"name,omitempty"`
}

// NodeProvenance is the recorded derivation of one output node: the
// Skolem function that created it, how many binding tuples touched it,
// a sample of those tuples, the source objects its bindings ranged
// over, and the attribute labels its block's conditions read.
type NodeProvenance struct {
	Name       string      `json:"name"`
	Func       string      `json:"func,omitempty"`
	TupleCount int         `json:"tuple_count"`
	Tuples     []Binding   `json:"tuples,omitempty"`
	Sources    []SourceRef `json:"sources,omitempty"`
	Attrs      []string    `json:"attrs,omitempty"`
}

// maxProvTuples bounds the per-node binding-tuple sample: enough to
// show why a page exists without retaining the whole binding relation.
const maxProvTuples = 8

// Provenance records, during one or more evaluations into the same
// output graph, the derivation of every constructed node. Set it on
// Options.Provenance. Safe for concurrent reads after evaluation;
// recording itself happens on the sequential construction stage.
type Provenance struct {
	mu         sync.Mutex
	nodes      map[graph.OID]*nodeProv
	blockAttrs map[*Block][]string
}

type nodeProv struct {
	name    string
	tuples  int
	sample  []Binding
	rowSeen map[string]struct{}
	sources map[graph.OID]string
	attrs   map[string]struct{}
}

// NewProvenance returns an empty recorder.
func NewProvenance() *Provenance {
	return &Provenance{
		nodes:      map[graph.OID]*nodeProv{},
		blockAttrs: map[*Block][]string{},
	}
}

// record notes that binding row r of block b touched output node id.
func (p *Provenance) record(ev *evaluator, b *Block, id graph.OID, r env) {
	p.mu.Lock()
	defer p.mu.Unlock()
	np, ok := p.nodes[id]
	if !ok {
		np = &nodeProv{
			name:    ev.out.NodeName(id),
			rowSeen: map[string]struct{}{},
			sources: map[graph.OID]string{},
			attrs:   map[string]struct{}{},
		}
		p.nodes[id] = np
	}
	key := ev.rowKeys.key(r)
	if _, dup := np.rowSeen[string(key)]; !dup {
		np.rowSeen[string(key)] = struct{}{}
		np.tuples++
		if len(np.sample) < maxProvTuples {
			np.sample = append(np.sample, ev.slots.binding(r))
		}
	}
	for i, v := range r {
		if v.IsNode() && ev.in.HasNode(v.OID()) {
			np.sources[v.OID()] = ev.in.NodeName(v.OID())
		}
		if ev.slots.kinds[i] == arcVar {
			if s, ok := v.AsString(); ok && s != "" {
				np.attrs[s] = struct{}{}
			}
		}
	}
	for _, a := range p.attrsOfLocked(b) {
		np.attrs[a] = struct{}{}
	}
}

// attrsOfLocked returns (memoizing) the literal attribute labels a
// block's conditions read. Caller holds p.mu.
func (p *Provenance) attrsOfLocked(b *Block) []string {
	if attrs, ok := p.blockAttrs[b]; ok {
		return attrs
	}
	seen := map[string]struct{}{}
	var walk func(c Condition)
	walk = func(c Condition) {
		switch c := c.(type) {
		case *EdgeCond:
			if c.Label.Lit != "" {
				seen[c.Label.Lit] = struct{}{}
			}
		case *NotCond:
			walk(c.Inner)
		}
	}
	for _, c := range b.Where {
		walk(c)
	}
	attrs := make([]string, 0, len(seen))
	for a := range seen {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	p.blockAttrs[b] = attrs
	return attrs
}

// Node returns the provenance record of one output node.
func (p *Provenance) Node(id graph.OID) (*NodeProvenance, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	np, ok := p.nodes[id]
	if !ok {
		return nil, false
	}
	out := &NodeProvenance{
		Name:       np.name,
		Func:       skolemFuncOf(np.name),
		TupleCount: np.tuples,
		Tuples:     append([]Binding(nil), np.sample...),
	}
	for oid, name := range np.sources {
		out.Sources = append(out.Sources, SourceRef{OID: oid, Name: name})
	}
	sort.Slice(out.Sources, func(i, j int) bool {
		a, b := out.Sources[i], out.Sources[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.OID < b.OID
	})
	for a := range np.attrs {
		out.Attrs = append(out.Attrs, a)
	}
	sort.Strings(out.Attrs)
	return out, true
}

// Nodes returns the recorded output-node OIDs in ascending order.
func (p *Provenance) Nodes() []graph.OID {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]graph.OID, 0, len(p.nodes))
	for id := range p.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// skolemFuncOf extracts the Skolem function from a symbolic node name:
// "YearPage(1997)" → "YearPage"; names without an application form
// return "".
func skolemFuncOf(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		return name[:i]
	}
	return ""
}
