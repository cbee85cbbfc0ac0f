package struql

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"strudel/internal/graph"
	"strudel/internal/pool"
)

// Options configure evaluation.
type Options struct {
	// Registry supplies external predicates; nil means built-ins only.
	Registry *Registry
	// Output, when non-nil, receives the query's constructions. This
	// supports the paper's extension that lets queries add nodes and
	// arcs to an existing graph so different queries build different
	// parts of the same site. When nil, a fresh graph named by the
	// query's OUTPUT clause is created, sharing the input's OID space.
	Output *graph.Graph
	// MaxBindings bounds the size of the binding relation as a safety
	// valve against runaway active-domain queries. 0 means the default
	// (4,000,000).
	MaxBindings int
	// WherePlanner, when set, evaluates each block's where conjunction
	// in place of the interpreter's built-in greedy strategy. The
	// optimizer package supplies an implementation that plans with the
	// repository's index statistics and executes index-based physical
	// operators ("as in traditional query processing, a query is first
	// translated by the query optimizer into an efficient
	// physical-operation tree", Sec. 2.4). The seed rows carry the
	// bindings of enclosing blocks.
	WherePlanner func(conds []Condition, seed []Binding) ([]Binding, error)
	// PlannerProfiled, when set together with Profiler, replaces
	// WherePlanner with a planner that reports per-step statistics
	// through the rec callback (the optimizer's ProfiledHook). When
	// Profiler is nil it behaves exactly like WherePlanner.
	PlannerProfiled func(conds []Condition, seed []Binding, rec func(StepStat)) ([]Binding, error)
	// Profiler, when set, collects an EXPLAIN plan tree with
	// per-operator runtime statistics during this evaluation. All
	// collected fields except wall times are deterministic at any
	// worker count.
	Profiler *Profiler
	// Provenance, when set, records per constructed node the Skolem
	// function, binding tuples, and consumed source objects and
	// attributes during the construction stage.
	Provenance *Provenance
	// Workers bounds the parallelism of the query stage: sibling blocks
	// bind concurrently, and within one conjunction the outer binding
	// loop is chunked across workers once a condition's input relation
	// reaches ParallelThreshold rows. 0 means runtime.GOMAXPROCS(0); 1
	// evaluates sequentially. The construction stage always runs
	// sequentially in block order, so Skolem OIDs, link order and
	// collection order are byte-identical at any worker count.
	Workers int
	// Pool, when set, overrides Workers with a shared (possibly
	// instrumented) worker pool.
	Pool *pool.Pool
	// ParallelThreshold is the minimum number of binding rows before
	// one condition's evaluation is chunked across workers; below it
	// the per-chunk overhead outweighs the win. 0 means the default
	// (256).
	ParallelThreshold int
}

// Result reports what an evaluation did.
type Result struct {
	Output *graph.Graph
	// Bindings is the total number of binding rows the construction
	// stage processed across all blocks.
	Bindings int
	// NewNodes is the number of Skolem nodes created.
	NewNodes int
}

const defaultMaxBindings = 4_000_000

// defaultParallelThreshold is the row count past which one condition's
// evaluation is chunked across pool workers. Measured on the workload
// benchmarks, the per-chunk cost (a goroutine dispatch plus one copy
// of the bound-slot set) amortizes at a few hundred rows.
const defaultParallelThreshold = 256

// Eval evaluates a query against an input graph. The semantics are the
// paper's two stages: the query stage computes all variable bindings
// satisfying the where conditions (per block, conjoined with ancestor
// blocks); the construction stage creates nodes via memoized Skolem
// functions, adds links, and populates collections.
func Eval(q *Query, input *graph.Graph, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	out := opts.Output
	if out == nil {
		name := q.Output
		if name == "" {
			name = "output"
		}
		out = input.NewSibling(name)
	}
	maxB := opts.MaxBindings
	if maxB == 0 {
		maxB = defaultMaxBindings
	}
	p := opts.Pool
	if p == nil {
		p = pool.New(opts.Workers)
	}
	thresh := opts.ParallelThreshold
	if thresh == 0 {
		thresh = defaultParallelThreshold
	}
	if opts.Profiler != nil {
		opts.Profiler.reset(q)
	}
	slots := newSlots(q.Root.Vars())
	ev := &evaluator{
		in:          input,
		out:         out,
		reg:         reg,
		slots:       slots,
		rowKeys:     rowKeyer{names: slots.names},
		newNodes:    map[graph.OID]bool{},
		skolems:     map[string]graph.OID{},
		nfaCache:    map[*PathExpr]*nfa{},
		maxB:        maxB,
		planner:     opts.WherePlanner,
		plannerProf: opts.PlannerProfiled,
		prof:        opts.Profiler,
		prov:        opts.Provenance,
		pool:        p,
		parThresh:   thresh,
	}
	// Two stages, as in the paper but restructured for parallelism: the
	// query stage binds every block of the tree (pure reads of the
	// input graph, so sibling blocks run concurrently); the construction
	// stage then replays the tree sequentially in definition order, so
	// Skolem OID allocation and edge insertion order cannot depend on
	// scheduling. One consequence: a query-stage error now surfaces
	// before any construction, instead of after the enclosing blocks'
	// clauses ran.
	bound, err := ev.bindBlock(q.Root, []env{ev.slots.row()})
	if err != nil {
		return nil, err
	}
	if err := ev.constructBlock(bound); err != nil {
		return nil, err
	}
	return &Result{Output: out, Bindings: ev.rows, NewNodes: len(ev.newNodes)}, nil
}

// env is one row of the binding relation: slot i holds the value of the
// evaluation's i-th variable (see slots), and the zero Value marks a
// slot no condition has bound. Arc variables bind to string atoms
// carrying the edge label. Relations share rows, so a row is never
// written once built: binding a variable copies it.
type env []graph.Value

// extend returns a copy of e with slot i bound to v.
func (e env) extend(i int, v graph.Value) env {
	ne := slices.Clone(e)
	ne[i] = v
	return ne
}

// slots numbers the variables of one evaluation: each of its rows is
// len(names) wide, and slot i holds names[i]. Names are numbered in
// sorted order, so slot order is name order.
type slots struct {
	index map[string]int
	names []string
	kinds []varKind
}

func newSlots(vars map[string]varKind) *slots {
	s := &slots{index: make(map[string]int, len(vars)), names: slices.Sorted(maps.Keys(vars))}
	s.kinds = make([]varKind, len(s.names))
	for i, n := range s.names {
		s.index[n] = i
		s.kinds[i] = vars[n]
	}
	return s
}

// of returns the slot of a variable a condition names. The evaluation
// numbers every such variable before it starts, so a missing one is a
// numbering bug: of panics rather than let a row write slot 0, as the
// zero of a missed map lookup would.
func (s *slots) of(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("struql: variable %q has no slot", name))
	}
	return i
}

// row returns a row with every slot unbound.
func (s *slots) row() env { return make(env, len(s.names)) }

// rows numbers Bindings into rows, all cut from one array. On a
// Binding that names a variable the evaluation does not number, rows
// returns that name.
func (s *slots) rows(bs []Binding) ([]env, string) {
	w := len(s.names)
	all := make([]graph.Value, len(bs)*w)
	out := make([]env, len(bs))
	for j, b := range bs {
		r := env(all[j*w : (j+1)*w : (j+1)*w])
		n := 0
		for i, name := range s.names {
			if v, ok := b[name]; ok {
				r[i] = v
				n++
			}
		}
		if n < len(b) {
			for name := range b {
				if _, ok := s.index[name]; !ok {
					return nil, name
				}
			}
		}
		out[j] = r
	}
	return out, ""
}

// binding returns a row's bound slots as a Binding: rows leave the
// evaluator as maps only through the planner hooks, EvalBindings and
// provenance's tuple samples.
func (s *slots) binding(r env) Binding {
	n := 0
	for _, v := range r {
		if !v.IsZero() {
			n++
		}
	}
	b := make(Binding, n)
	for i, v := range r {
		if !v.IsZero() {
			b[s.names[i]] = v
		}
	}
	return b
}

// slotTerm is a term resolved against the slot table once per
// condition step or per block's construction, so the row loops index
// rows and hash no name: a variable's slot, or slot -1 and a constant.
type slotTerm struct {
	slot  int
	konst graph.Value
}

func (s *slots) term(t Term) slotTerm {
	if !t.IsVar() {
		return slotTerm{slot: -1, konst: t.Const}
	}
	return slotTerm{slot: s.of(t.Var)}
}

// in returns the term's value in r; the zero Value when unbound.
func (t slotTerm) in(r env) graph.Value {
	if t.slot < 0 {
		return t.konst
	}
	return r[t.slot]
}

// boundIn reports whether the term is a constant or a bound slot.
func (t slotTerm) boundIn(bound []bool) bool { return t.slot < 0 || bound[t.slot] }

// clauseTerm resolves a construction clause's term. A variable that no
// where clause names has no slot; it resolves to the zero Value, which
// reads as unbound in every row.
func (s *slots) clauseTerm(t Term) slotTerm {
	if _, ok := s.index[t.Var]; t.IsVar() && !ok {
		return slotTerm{slot: -1}
	}
	return s.term(t)
}

// clauses are a block's construction clauses with every term resolved
// to its slot, once per block rather than once per row.
type clauses struct {
	creates  []targetSlots
	links    []linkSlots
	collects []targetSlots
}

// targetSlots is a construction endpoint: a Skolem application with
// its arguments' slots in args, or a term whose slot is args[0].
type targetSlots struct {
	skolem *SkolemTerm
	term   *Term
	args   []slotTerm
}

// linkSlots is a link clause; label is its arc variable or literal
// label, and agg the aggregated variable when its target aggregates.
type linkSlots struct {
	link       *Link
	from, to   targetSlots
	label, agg slotTerm
}

func (s *slots) clauses(b *Block) *clauses {
	c := &clauses{}
	for i := range b.Creates {
		c.creates = append(c.creates, s.target(LinkTarget{Skolem: &b.Creates[i]}))
	}
	for i := range b.Links {
		l := &b.Links[i]
		ls := linkSlots{link: l, from: s.target(l.From), to: s.target(l.To), label: slotTerm{slot: -1, konst: graph.Str(l.Label.Lit)}}
		if l.Label.Var != "" {
			ls.label = s.clauseTerm(VarTerm(l.Label.Var))
		}
		if l.To.Agg != nil {
			ls.agg = s.clauseTerm(VarTerm(l.To.Agg.Var))
		}
		c.links = append(c.links, ls)
	}
	for _, co := range b.Collects {
		c.collects = append(c.collects, s.target(co.Target))
	}
	return c
}

// target resolves a link or collect endpoint; an aggregate has none
// (see linkSlots.agg).
func (s *slots) target(t LinkTarget) targetSlots {
	switch {
	case t.Skolem != nil:
		args := make([]slotTerm, len(t.Skolem.Args))
		for i, a := range t.Skolem.Args {
			args[i] = s.clauseTerm(a)
		}
		return targetSlots{skolem: t.Skolem, args: args}
	case t.Term != nil:
		return targetSlots{term: t.Term, args: []slotTerm{s.clauseTerm(*t.Term)}}
	}
	return targetSlots{}
}

type evaluator struct {
	in       *graph.Graph
	out      *graph.Graph
	reg      *Registry
	slots    *slots
	newNodes map[graph.OID]bool
	// skolems memoizes skolemNode for this evaluation: function name
	// and encoded arguments → OID. skolemBuf is its key buffer.
	skolems   map[string]graph.OID
	skolemBuf []byte
	// rowKeys encodes provenance's binding-row keys, by name (see
	// rowKeyer).
	rowKeys  rowKeyer
	nfaMu    sync.Mutex
	nfaCache map[*PathExpr]*nfa
	rows     int
	maxB     int
	planner  func(conds []Condition, seed []Binding) ([]Binding, error)
	// plannerProf is the profiling-capable planner; it takes precedence
	// over planner when set.
	plannerProf func(conds []Condition, seed []Binding, rec func(StepStat)) ([]Binding, error)
	// prof collects the EXPLAIN plan tree; nil when profiling is off.
	// Each block's PlanNode is written only by the goroutine binding
	// that block, so no locking is needed.
	prof *Profiler
	// prov records construction provenance; nil when off. Recording
	// happens only on the sequential construction stage.
	prov *Provenance
	// pool bounds query-stage parallelism; nil means sequential (the
	// EvalBindings entry point — its callers parallelize across pages
	// instead).
	pool      *pool.Pool
	parThresh int
}

// boundBlock is one block's computed binding relation, with its
// children's — the output of the query stage, input to the (strictly
// sequential) construction stage.
type boundBlock struct {
	b        *Block
	envs     []env
	children []*boundBlock
}

// bindBlock computes the block's binding relation (extending the
// parent rows) and recurses into children with the extended relation.
// Sibling blocks bind concurrently: the query stage only reads the
// input graph, never the output graph, so block independence holds by
// construction.
func (ev *evaluator) bindBlock(b *Block, parents []env) (*boundBlock, error) {
	pn := ev.prof.nodeFor(b)
	envs, err := ev.applyWhere(b.Where, parents, pn)
	if err != nil {
		return nil, err
	}
	envs = dedupe(envs)
	if pn != nil {
		pn.SeedRows = len(parents)
		pn.Rows = len(envs)
	}
	node := &boundBlock{b: b, envs: envs}
	node.children, err = pool.Map(pool.WithPhase(context.Background(), "bind"), ev.pool, len(b.Children),
		func(_ context.Context, i int) (*boundBlock, error) {
			return ev.bindBlock(b.Children[i], envs)
		})
	if err != nil {
		return nil, err
	}
	return node, nil
}

// constructBlock runs the construction clauses over a bound block tree
// in definition order (pre-order), one row at a time — exactly the
// order the sequential evaluator used, so Skolem OIDs and edge
// insertion order are identical at any worker count.
func (ev *evaluator) constructBlock(n *boundBlock) error {
	acc := map[aggKey]*aggState{}
	cl := ev.slots.clauses(n.b)
	for _, e := range n.envs {
		ev.rows++
		if ev.rows > ev.maxB {
			return fmt.Errorf("struql: binding relation exceeded %d rows; the query is probably missing a range restriction", ev.maxB)
		}
		if err := ev.construct(n.b, cl, e, acc); err != nil {
			return err
		}
	}
	if err := ev.flushAggregates(acc); err != nil {
		return err
	}
	for _, ch := range n.children {
		if err := ev.constructBlock(ch); err != nil {
			return err
		}
	}
	return nil
}

// applyWhere extends the rows with all assignments satisfying the
// conditions. Conditions are ordered greedily: fully bound conditions
// act as filters first; generators are picked cheapest-first; when
// only conditions over unbound variables remain (e.g. negation), one
// unbound variable is ranged over the active domain, per the paper's
// active-domain semantics.
func (ev *evaluator) applyWhere(conds []Condition, rows []env, pn *PlanNode) ([]env, error) {
	if len(conds) == 0 {
		return rows, nil
	}
	if ev.plannerProf != nil || ev.planner != nil {
		seed := make([]Binding, len(rows))
		for i, r := range rows {
			seed[i] = ev.slots.binding(r)
		}
		var planned []Binding
		var err error
		switch {
		case ev.plannerProf != nil:
			var rec func(StepStat)
			if pn != nil {
				rec = func(st StepStat) { pn.Steps = append(pn.Steps, st) }
			}
			planned, err = ev.plannerProf(conds, seed, rec)
		default:
			t0 := time.Now()
			planned, err = ev.planner(conds, seed)
			if pn != nil && err == nil {
				// Opaque planner: the per-step breakdown is unavailable,
				// so record the whole conjunction as one step.
				pn.Steps = append(pn.Steps, StepStat{
					Cond:    condsString(conds),
					Method:  "planner",
					EstRows: -1,
					RowsIn:  len(seed),
					RowsOut: len(planned),
					WallNS:  time.Since(t0).Nanoseconds(),
				})
			}
		}
		if err != nil {
			return nil, err
		}
		if len(planned) > ev.maxB {
			return nil, fmt.Errorf("struql: binding relation exceeded %d rows", ev.maxB)
		}
		out, missing := ev.slots.rows(planned)
		if missing != "" {
			return nil, fmt.Errorf("struql: planner row names variable %q, which no condition of this query names", missing)
		}
		return out, nil
	}
	remaining := make([]Condition, len(conds))
	copy(remaining, conds)
	bound := make([]bool, len(ev.slots.names))
	if len(rows) > 0 {
		for i, v := range rows[0] {
			bound[i] = !v.IsZero()
		}
	}
	for len(remaining) > 0 {
		idx, score := ev.pickNext(remaining, bound)
		if score >= scoreNeedsDomain {
			// Active-domain fallback: bind one unbound variable of the
			// chosen condition to every element of the active domain.
			v, kind := ev.firstUnbound(remaining[idx], bound)
			if v == "" {
				return nil, fmt.Errorf("struql: cannot order condition %s", remaining[idx])
			}
			slot := ev.slots.of(v)
			in := len(rows)
			t0 := time.Now()
			domain := ev.activeDomain(kind)
			var next []env
			for _, r := range rows {
				for _, d := range domain {
					next = append(next, r.extend(slot, d))
				}
			}
			if len(next) > ev.maxB {
				return nil, fmt.Errorf("struql: active-domain expansion of %q exceeded %d rows", v, ev.maxB)
			}
			rows = next
			bound[slot] = true
			if pn != nil {
				pn.Steps = append(pn.Steps, StepStat{
					Cond:    "domain(" + v + ")",
					Method:  "active-domain",
					EstRows: -1,
					RowsIn:  in,
					RowsOut: len(rows),
					WallNS:  time.Since(t0).Nanoseconds(),
				})
			}
			continue
		}
		cond := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		var method string
		if pn != nil {
			method = ev.interpMethod(cond, bound)
		}
		in := len(rows)
		t0 := time.Now()
		var err error
		rows, err = ev.expandRows(cond, rows, bound)
		if err != nil {
			return nil, err
		}
		if pn != nil {
			pn.Steps = append(pn.Steps, StepStat{
				Cond:    cond.String(),
				Method:  method,
				EstRows: -1,
				RowsIn:  in,
				RowsOut: len(rows),
				WallNS:  time.Since(t0).Nanoseconds(),
			})
		}
		if len(rows) > ev.maxB {
			return nil, fmt.Errorf("struql: binding relation exceeded %d rows while evaluating %s", ev.maxB, cond)
		}
	}
	return rows, nil
}

// condsString renders a conjunction for the opaque-planner plan step.
func condsString(conds []Condition) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

// interpMethod names the interpreter's access strategy for one
// condition given the currently bound variables — the interpreter
// analogue of the optimizer's physical-operator choice, computed
// before expandRows mutates the bound set.
func (ev *evaluator) interpMethod(c Condition, bound []bool) string {
	termBound := func(t Term) bool { return ev.slots.term(t).boundIn(bound) }
	switch c := c.(type) {
	case *MembershipCond:
		if termBound(c.Arg) {
			return "member-check"
		}
		return "collection-scan"
	case *EdgeCond:
		switch {
		case termBound(c.From):
			return "edge-out"
		case termBound(c.To):
			return "edge-in"
		default:
			return "edge-scan"
		}
	case *PathCond:
		return "path-nfa"
	case *CompareCond:
		if termBound(c.Left) && termBound(c.Right) {
			return "filter"
		}
		return "assign"
	case *InSetCond:
		if bound[ev.slots.of(c.Var)] {
			return "filter:in"
		}
		return "set-expand"
	case *PredCond:
		return "predicate"
	case *NotCond:
		return "anti-join"
	default:
		return "generic"
	}
}

const scoreNeedsDomain = 1000

// pickNext returns the index of the cheapest evaluable condition and
// its score.
func (ev *evaluator) pickNext(conds []Condition, bound []bool) (int, int) {
	best, bestScore := 0, 1<<30
	for i, c := range conds {
		s := ev.score(c, bound)
		if s < bestScore {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}

func (ev *evaluator) score(c Condition, bound []bool) int {
	termBound := func(t Term) bool { return ev.slots.term(t).boundIn(bound) }
	switch c := c.(type) {
	case *MembershipCond:
		if termBound(c.Arg) {
			return 0
		}
		if ev.in.HasCollection(c.Collection) {
			return 10
		}
		return scoreNeedsDomain + 500 // predicate needing a bound arg
	case *EdgeCond:
		fb, tb := termBound(c.From), termBound(c.To)
		lb := c.Label.Var == "" || bound[ev.slots.of(c.Label.Var)]
		switch {
		case fb && tb && lb:
			return 0
		case fb:
			return 20
		case tb:
			return 40
		default:
			return 60
		}
	case *PathCond:
		fb, tb := termBound(c.From), termBound(c.To)
		switch {
		case fb && tb:
			return 5
		case fb:
			return 25
		case tb:
			return 45
		default:
			return 65
		}
	case *CompareCond:
		lb, rb := termBound(c.Left), termBound(c.Right)
		switch {
		case lb && rb:
			return 0
		case c.Op == OpEq && (lb || rb):
			return 15
		default:
			return scoreNeedsDomain + 200
		}
	case *InSetCond:
		if bound[ev.slots.of(c.Var)] {
			return 0
		}
		return 12
	case *PredCond:
		for _, a := range c.Args {
			if !termBound(a) {
				return scoreNeedsDomain + 300
			}
		}
		return 1
	case *NotCond:
		vm := map[string]varKind{}
		c.vars(vm)
		for v := range vm {
			if !bound[ev.slots.of(v)] {
				return scoreNeedsDomain + 1000
			}
		}
		return 2
	default:
		return scoreNeedsDomain + 2000
	}
}

// firstUnbound returns one unbound variable of c and its kind.
func (ev *evaluator) firstUnbound(c Condition, bound []bool) (string, varKind) {
	vm := map[string]varKind{}
	c.vars(vm)
	for _, v := range slices.Sorted(maps.Keys(vm)) {
		if !bound[ev.slots.of(v)] {
			return v, vm[v]
		}
	}
	return "", nodeVar
}

// activeDomain enumerates the active domain: all nodes plus all atoms
// appearing as edge targets or collection members for node variables;
// all labels for arc variables.
func (ev *evaluator) activeDomain(kind varKind) []graph.Value {
	if kind == arcVar {
		labels := ev.in.Labels()
		out := make([]graph.Value, len(labels))
		for i, l := range labels {
			out[i] = graph.Str(l)
		}
		return out
	}
	var out []graph.Value
	seen := map[graph.Value]struct{}{}
	add := func(v graph.Value) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, id := range ev.in.Nodes() {
		add(graph.NodeValue(id))
	}
	ev.in.Edges(func(e graph.Edge) bool {
		if !e.To.IsNode() {
			add(e.To)
		}
		return true
	})
	for _, c := range ev.in.Collections() {
		for _, m := range ev.in.Collection(c) {
			add(m)
		}
	}
	return out
}

// expandRows applies one condition to the full relation. Past the
// parallel threshold the outer binding loop is chunked across pool
// workers: every expand* evaluator processes rows independently and in
// order, so the concatenation of the chunk outputs equals the
// sequential output row for row. Each chunk works on a copy of the
// bound-slot set; the canonical update of bound is replayed once
// afterwards with an empty relation (the updates depend only on the
// condition and the bound set, never on the rows).
func (ev *evaluator) expandRows(c Condition, rows []env, bound []bool) ([]env, error) {
	w := 1
	if ev.pool != nil {
		w = ev.pool.Workers()
	}
	if w <= 1 || len(rows) < ev.parThresh {
		return ev.expand(c, rows, bound)
	}
	chunk := (len(rows) + w - 1) / w
	var chunks [][]env
	for start := 0; start < len(rows); start += chunk {
		end := min(start+chunk, len(rows))
		chunks = append(chunks, rows[start:end])
	}
	parts, err := pool.Map(pool.WithPhase(context.Background(), "bind"), ev.pool, len(chunks),
		func(_ context.Context, i int) ([]env, error) {
			return ev.expand(c, chunks[i], slices.Clone(bound))
		})
	if err != nil {
		return nil, err
	}
	out := make([]env, 0, len(rows))
	for _, p := range parts {
		out = append(out, p...)
	}
	if _, err := ev.expand(c, nil, bound); err != nil {
		return nil, err
	}
	if _, ok := c.(*PathCond); ok {
		// expandPath dedupes its output; per-chunk dedupe can leave
		// cross-chunk duplicates, so dedupe the concatenation (same
		// first-occurrence order as the sequential pass).
		out = dedupe(out)
	}
	return out, nil
}

// expand applies one condition to every row, producing the extended
// relation. bound is updated with newly bound slots. Each expand*
// resolves its terms' slots once, before its row loop.
func (ev *evaluator) expand(c Condition, rows []env, bound []bool) ([]env, error) {
	switch c := c.(type) {
	case *MembershipCond:
		return ev.expandMembership(c, rows, bound)
	case *EdgeCond:
		return ev.expandEdge(c, rows, bound)
	case *PathCond:
		return ev.expandPath(c, rows, bound)
	case *CompareCond:
		return ev.expandCompare(c, rows, bound)
	case *InSetCond:
		return ev.expandInSet(c, rows, bound)
	case *PredCond:
		return ev.expandPred(c, rows)
	case *NotCond:
		return ev.expandNot(c, rows, bound)
	default:
		return nil, fmt.Errorf("struql: unsupported condition %T", c)
	}
}

func (ev *evaluator) expandMembership(c *MembershipCond, rows []env, bound []bool) ([]env, error) {
	arg := ev.slots.term(c.Arg)
	isColl := ev.in.HasCollection(c.Collection)
	if !isColl {
		// Semantic-level resolution: not a collection, so it must be
		// an external predicate (paper Sec. 3).
		if fn, ok := ev.reg.objectPred(c.Collection); ok {
			var out []env
			for _, r := range rows {
				v := arg.in(r)
				if v.IsZero() {
					return nil, fmt.Errorf("struql: predicate %s applied to unbound variable", c)
				}
				if fn(v) {
					out = append(out, r)
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("struql: %q is neither a collection of graph %q nor a registered predicate", c.Collection, ev.in.Name())
	}
	if arg.boundIn(bound) {
		var out []env
		for _, r := range rows {
			if ev.in.InCollection(c.Collection, arg.in(r)) {
				out = append(out, r)
			}
		}
		return out, nil
	}
	members := ev.in.Collection(c.Collection)
	var out []env
	for _, r := range rows {
		for _, m := range members {
			out = append(out, r.extend(arg.slot, m))
		}
	}
	bound[arg.slot] = true
	return out, nil
}

func (ev *evaluator) expandEdge(c *EdgeCond, rows []env, bound []bool) ([]env, error) {
	from, to := ev.slots.term(c.From), ev.slots.term(c.To)
	label := -1 // the arc variable's slot
	if c.Label.Var != "" {
		label = ev.slots.of(c.Label.Var)
	}
	fromBound, toBound := from.boundIn(bound), to.boundIn(bound)
	labelBound := label < 0 || bound[label]

	labelOK := func(r env, l string) bool {
		switch {
		case c.Label.Any:
			return true
		case label >= 0:
			if lv := r[label]; !lv.IsZero() {
				s, _ := lv.AsString()
				return s == l
			}
			return true // unbound: will bind
		default:
			return c.Label.Lit == l
		}
	}
	// bindRow copies r once, however many of from, label and to the
	// edge binds.
	bindRow := func(r env, e graph.Edge) env {
		if fromBound && labelBound && toBound {
			return r
		}
		nr := slices.Clone(r)
		if !fromBound {
			nr[from.slot] = graph.NodeValue(e.From)
		}
		if !labelBound {
			nr[label] = graph.Str(e.Label)
		}
		if !toBound {
			nr[to.slot] = e.To
		}
		return nr
	}
	toMatches := func(r env, v graph.Value) bool {
		return !toBound || to.in(r) == v
	}

	var out []env
	switch {
	case fromBound:
		for _, r := range rows {
			fv := from.in(r)
			if !fv.IsNode() {
				continue
			}
			ev.in.EachOut(fv.OID(), func(e graph.Edge) bool {
				if labelOK(r, e.Label) && toMatches(r, e.To) {
					out = append(out, bindRow(r, e))
				}
				return true
			})
		}
	case toBound:
		for _, r := range rows {
			tv := to.in(r)
			if tv.IsNode() {
				for _, e := range ev.in.In(tv.OID()) {
					if labelOK(r, e.Label) {
						out = append(out, bindRow(r, e))
					}
				}
			} else {
				// Atom target: no reverse index in the graph itself;
				// scan (the repository's value index accelerates this
				// at the optimizer level).
				ev.in.Edges(func(e graph.Edge) bool {
					if e.To == tv && labelOK(r, e.Label) {
						out = append(out, bindRow(r, e))
					}
					return true
				})
			}
		}
	default:
		// Neither endpoint bound: scan all edges per row.
		for _, r := range rows {
			ev.in.Edges(func(e graph.Edge) bool {
				if labelOK(r, e.Label) {
					out = append(out, bindRow(r, e))
				}
				return true
			})
		}
	}
	for _, t := range [...]slotTerm{from, to} {
		if t.slot >= 0 {
			bound[t.slot] = true
		}
	}
	if label >= 0 {
		bound[label] = true
	}
	return out, nil
}

// pathNFA compiles (or returns the memoized automaton for) a path
// expression. The cache is shared by concurrently binding blocks and
// by chunk workers, so access is serialized; compilation is cheap
// relative to path traversal.
func (ev *evaluator) pathNFA(p *PathExpr) (*nfa, error) {
	ev.nfaMu.Lock()
	defer ev.nfaMu.Unlock()
	if n, ok := ev.nfaCache[p]; ok {
		return n, nil
	}
	n, err := compilePath(p, ev.reg)
	if err != nil {
		return nil, err
	}
	ev.nfaCache[p] = n
	return n, nil
}

func (ev *evaluator) expandPath(c *PathCond, rows []env, bound []bool) ([]env, error) {
	n, err := ev.pathNFA(c.Path)
	if err != nil {
		return nil, err
	}
	from, to := ev.slots.term(c.From), ev.slots.term(c.To)
	fromBound, toBound := from.boundIn(bound), to.boundIn(bound)

	sources := func(r env) []graph.Value {
		if fromBound {
			return []graph.Value{from.in(r)}
		}
		// Unbound source: every node is a candidate; atoms only reach
		// themselves via the empty path.
		var src []graph.Value
		for _, id := range ev.in.Nodes() {
			src = append(src, graph.NodeValue(id))
		}
		if n.acceptsEmpty() {
			src = append(src, ev.atomDomain()...)
		}
		return src
	}

	var out []env
	for _, r := range rows {
		for _, s := range sources(r) {
			for _, t := range n.reach(ev.in, s) {
				if toBound && t != to.in(r) {
					continue
				}
				nr := r
				if !fromBound || !toBound {
					nr = slices.Clone(r)
					if !fromBound {
						nr[from.slot] = s
					}
					if !toBound {
						nr[to.slot] = t
					}
				}
				out = append(out, nr)
			}
		}
	}
	for _, t := range [...]slotTerm{from, to} {
		if t.slot >= 0 {
			bound[t.slot] = true
		}
	}
	return dedupe(out), nil
}

// atomDomain enumerates the atoms of the active domain.
func (ev *evaluator) atomDomain() []graph.Value {
	var out []graph.Value
	seen := map[graph.Value]struct{}{}
	ev.in.Edges(func(e graph.Edge) bool {
		if !e.To.IsNode() {
			if _, ok := seen[e.To]; !ok {
				seen[e.To] = struct{}{}
				out = append(out, e.To)
			}
		}
		return true
	})
	return out
}

func (ev *evaluator) expandCompare(c *CompareCond, rows []env, bound []bool) ([]env, error) {
	left, right := ev.slots.term(c.Left), ev.slots.term(c.Right)
	lb, rb := left.boundIn(bound), right.boundIn(bound)
	var out []env
	switch {
	case lb && rb:
		for _, r := range rows {
			if compareOK(left.in(r), right.in(r), c.Op) {
				out = append(out, r)
			}
		}
	case c.Op == OpEq && lb:
		for _, r := range rows {
			out = append(out, r.extend(right.slot, left.in(r)))
		}
		bound[right.slot] = true
	case c.Op == OpEq && rb:
		for _, r := range rows {
			out = append(out, r.extend(left.slot, right.in(r)))
		}
		bound[left.slot] = true
	default:
		return nil, fmt.Errorf("struql: comparison %s over unbound variables", c)
	}
	return out, nil
}

func compareOK(a, b graph.Value, op CompareOp) bool {
	cmp, ok := graph.Compare(a, b)
	if !ok {
		// Incomparable values are unequal and satisfy no ordering.
		return op == OpNeq
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNeq:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func (ev *evaluator) expandInSet(c *InSetCond, rows []env, bound []bool) ([]env, error) {
	slot := ev.slots.of(c.Var)
	var out []env
	if bound[slot] {
		for _, r := range rows {
			s, _ := r[slot].AsString()
			if slices.Contains(c.Set, s) {
				out = append(out, r)
			}
		}
		return out, nil
	}
	for _, r := range rows {
		for _, m := range c.Set {
			out = append(out, r.extend(slot, graph.Str(m)))
		}
	}
	bound[slot] = true
	return out, nil
}

func (ev *evaluator) expandPred(c *PredCond, rows []env) ([]env, error) {
	fn, ok := ev.reg.multiPred(c.Name)
	if !ok {
		if len(c.Args) == 1 {
			if ufn, uok := ev.reg.objectPred(c.Name); uok {
				fn = func(vs []graph.Value) bool { return ufn(vs[0]) }
				ok = true
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("struql: unknown predicate %q", c.Name)
	}
	args := make([]slotTerm, len(c.Args))
	for i, a := range c.Args {
		args[i] = ev.slots.term(a)
	}
	var out []env
	for _, r := range rows {
		vals := make([]graph.Value, len(args))
		for i, a := range args {
			if vals[i] = a.in(r); vals[i].IsZero() {
				return nil, fmt.Errorf("struql: predicate %s applied to unbound variable %q", c, c.Args[i].Var)
			}
		}
		if fn(vals) {
			out = append(out, r)
		}
	}
	return out, nil
}

// expandNot keeps the rows under which the inner condition has no
// match. The inner evaluation extends copies of each row, so nothing
// it binds reaches the rows kept.
func (ev *evaluator) expandNot(c *NotCond, rows []env, bound []bool) ([]env, error) {
	var out []env
	inner := make([]bool, len(bound))
	for _, r := range rows {
		copy(inner, bound)
		matches, err := ev.expand(c.Inner, []env{r}, inner)
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// dedupe removes duplicate rows; the binding relation is a set.
func dedupe(rows []env) []env {
	if len(rows) < 2 {
		return rows
	}
	var keys rowKeyer
	seen := make(map[string]struct{}, len(rows))
	out := make([]env, 0, len(rows))
	for _, r := range rows {
		k := keys.key(r)
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// rowKeyer encodes binding rows as injective byte keys: for each bound
// slot in slot order, its index, or its variable's length-prefixed name
// when names is set, then its graph.Value.AppendKey encoding. Index
// keys compare the rows of one evaluation. Provenance, whose recorder
// spans the evaluations of several queries, keys by name: slots are
// numbered in name order, so the same variables and values key alike
// in any evaluation. A key is valid until the next call.
type rowKeyer struct {
	names []string
	buf   []byte
}

func (k *rowKeyer) key(r env) []byte {
	b := k.buf[:0]
	for i, v := range r {
		if v.IsZero() {
			continue
		}
		if k.names != nil {
			b = append(binary.AppendUvarint(b, uint64(len(k.names[i]))), k.names[i]...)
		} else {
			b = binary.AppendUvarint(b, uint64(i))
		}
		b = v.AppendKey(b)
	}
	k.buf = b
	return b
}

// aggKey groups aggregate accumulation by link clause, resolved
// source node and label.
type aggKey struct {
	link  *Link
	from  graph.OID
	label string
}

// aggState accumulates the distinct values of the aggregated variable
// within one group. ord is the group's creation rank within its block,
// so flushAggregates emits edges in a deterministic order (the row
// loop that creates groups is itself deterministic).
type aggState struct {
	op   AggOp
	seen map[graph.Value]struct{}
	vals []graph.Value
	ord  int
}

// construct runs the block's create, link and collect clauses (cl)
// for one binding row. Links whose target is an aggregate accumulate
// into acc and are emitted by flushAggregates after all rows.
func (ev *evaluator) construct(b *Block, cl *clauses, r env, acc map[aggKey]*aggState) error {
	for _, ct := range cl.creates {
		id, err := ev.skolemNode(ct, r)
		if err != nil {
			return err
		}
		ev.recordProv(b, id, r)
	}
	for _, l := range cl.links {
		from, err := ev.resolveTarget(l.from, r)
		if err != nil {
			return err
		}
		if !from.IsNode() || !ev.newNodes[from.OID()] {
			return fmt.Errorf("struql: link %s adds an edge from existing object %s; existing nodes are immutable", l.link, from)
		}
		ev.recordProv(b, from.OID(), r)
		lv := l.label.in(r)
		if lv.IsZero() {
			return fmt.Errorf("struql: link %s: arc variable %q unbound", l.link, l.link.Label.Var)
		}
		label, _ := lv.AsString()
		if agg := l.link.To.Agg; agg != nil {
			v := l.agg.in(r)
			if v.IsZero() {
				return fmt.Errorf("struql: aggregate %s: variable %q unbound", agg, agg.Var)
			}
			k := aggKey{link: l.link, from: from.OID(), label: label}
			st, ok := acc[k]
			if !ok {
				st = &aggState{op: agg.Op, seen: map[graph.Value]struct{}{}, ord: len(acc)}
				acc[k] = st
			}
			if _, dup := st.seen[v]; !dup {
				st.seen[v] = struct{}{}
				st.vals = append(st.vals, v)
			}
			continue
		}
		to, err := ev.resolveTarget(l.to, r)
		if err != nil {
			return err
		}
		ev.reach(b, to, r)
		if err := ev.out.AddEdge(from.OID(), label, to); err != nil {
			return err
		}
	}
	for i, c := range cl.collects {
		v, err := ev.resolveTarget(c, r)
		if err != nil {
			return err
		}
		ev.reach(b, v, r)
		ev.out.AddToCollection(b.Collects[i].Collection, v)
	}
	return nil
}

// reach prepares the target of a link or collect. A node this
// evaluation created records the row's provenance. Any other node,
// such as a data-graph node, joins the output under its input name,
// so the output names it as the input does and not by its OID, which
// differs from one wrap of a source to the next.
func (ev *evaluator) reach(b *Block, v graph.Value, r env) {
	switch {
	case !v.IsNode():
	case ev.newNodes[v.OID()]:
		ev.recordProv(b, v.OID(), r)
	default:
		ev.out.AddNode(v.OID(), ev.in.NodeName(v.OID()))
	}
}

// recordProv forwards one construction touch to the provenance
// recorder; a no-op when provenance is off. Called only from the
// sequential construction stage.
func (ev *evaluator) recordProv(b *Block, id graph.OID, r env) {
	if ev.prov != nil {
		ev.prov.record(ev, b, id, r)
	}
}

// flushAggregates emits one edge per aggregate group, in group
// creation order — never map iteration order, which would let two
// aggregate edges on the same node land in different positions from
// one build to the next.
func (ev *evaluator) flushAggregates(acc map[aggKey]*aggState) error {
	type entry struct {
		k  aggKey
		st *aggState
	}
	entries := make([]entry, 0, len(acc))
	for k, st := range acc {
		entries = append(entries, entry{k, st})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].st.ord < entries[j].st.ord })
	for _, e := range entries {
		v, err := Aggregate(e.st.op, e.st.vals)
		if err != nil {
			return err
		}
		if err := ev.out.AddEdge(e.k.from, e.k.label, v); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate computes one aggregate over a group's distinct values.
// Exported for the incremental evaluator, which groups per page.
func Aggregate(op AggOp, vals []graph.Value) (graph.Value, error) {
	switch op {
	case AggCount:
		return graph.Int(int64(len(vals))), nil
	case AggMin, AggMax:
		if len(vals) == 0 {
			return graph.Value{}, fmt.Errorf("struql: %s over empty group", op)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp, ok := graph.Compare(v, best)
			if !ok {
				cmp = 1
				if graph.Less(v, best) {
					cmp = -1
				}
			}
			if (op == AggMin && cmp < 0) || (op == AggMax && cmp > 0) {
				best = v
			}
		}
		return best, nil
	default: // SUM, AVG
		var sum float64
		allInt := true
		for _, v := range vals {
			switch v.Kind() {
			case graph.KindInt:
				n, _ := v.AsInt()
				sum += float64(n)
			case graph.KindFloat:
				f, _ := v.AsFloat()
				sum += f
				allInt = false
			default:
				return graph.Value{}, fmt.Errorf("struql: %s over non-numeric value %s", op, v)
			}
		}
		if op == AggAvg {
			if len(vals) == 0 {
				return graph.Value{}, fmt.Errorf("struql: AVG over empty group")
			}
			return graph.Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return graph.Int(int64(sum)), nil
		}
		return graph.Float(sum), nil
	}
}

// skolemNode returns the node for a Skolem application, creating it on
// first use. By definition a Skolem function applied to the same
// inputs produces the same node OID; the output graph's symbolic node
// names serve as the memo table, which also makes Skolem identities
// stable across queries composed into the same output graph. In front
// of that name lookup, ev.skolems memoizes this evaluation's
// applications by function name and encoded arguments, so a repeated
// application formats no name.
func (ev *evaluator) skolemNode(t targetSlots, r env) (graph.OID, error) {
	b := append(ev.skolemBuf[:0], t.skolem.Func...)
	for i, a := range t.args {
		v := a.in(r)
		if v.IsZero() {
			return 0, fmt.Errorf("struql: %s: variable %q unbound", t.skolem, t.skolem.Args[i].Var)
		}
		b = v.AppendKey(append(b, 0))
	}
	ev.skolemBuf = b
	if id, ok := ev.skolems[string(b)]; ok {
		return id, nil
	}
	args := make([]graph.Value, len(t.args))
	for i, a := range t.args {
		args[i] = a.in(r)
	}
	id := ev.out.NewNode(SkolemName(ev.in, t.skolem.Func, args))
	ev.skolems[string(b)] = id
	ev.newNodes[id] = true
	return id, nil
}

// SkolemName is the symbolic name of the node Skolem function fn
// creates for args: "F(a1,...)", a node argument by its name in g (when
// g is set and the node has one), any other value by Value.String.
// Click-time evaluation names its pages by it too, so both strategies
// agree on page identity (e.g. PaperPresentation(pub1)).
func SkolemName(g *graph.Graph, fn string, args []graph.Value) string {
	parts := make([]string, len(args))
	for i, v := range args {
		if g != nil && v.IsNode() {
			parts[i] = g.NodeName(v.OID())
		}
		if parts[i] == "" {
			parts[i] = v.String()
		}
	}
	return fn + "(" + strings.Join(parts, ",") + ")"
}

func (ev *evaluator) resolveTarget(t targetSlots, r env) (graph.Value, error) {
	if t.skolem != nil {
		id, err := ev.skolemNode(t, r)
		if err != nil {
			return graph.Value{}, err
		}
		return graph.NodeValue(id), nil
	}
	v := t.args[0].in(r)
	if v.IsZero() {
		return graph.Value{}, fmt.Errorf("struql: variable %q unbound in construction clause", t.term.Var)
	}
	return v, nil
}
