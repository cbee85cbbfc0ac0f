package struql

import (
	"context"
	"fmt"
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
// of the bound-variable set) amortizes at a few hundred rows.
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
	ev := &evaluator{
		in:          input,
		out:         out,
		reg:         reg,
		varKinds:    q.Root.Vars(),
		newNodes:    map[graph.OID]bool{},
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
	bound, err := ev.bindBlock(q.Root, []env{{}})
	if err != nil {
		return nil, err
	}
	if err := ev.constructBlock(bound); err != nil {
		return nil, err
	}
	return &Result{Output: out, Bindings: ev.rows, NewNodes: len(ev.newNodes)}, nil
}

// env is one row of the binding relation: variable name → value. Arc
// variables bind to string atoms carrying the edge label.
type env map[string]graph.Value

func (e env) extend(name string, v graph.Value) env {
	ne := make(env, len(e)+1)
	for k, val := range e {
		ne[k] = val
	}
	ne[name] = v
	return ne
}

type evaluator struct {
	in       *graph.Graph
	out      *graph.Graph
	reg      *Registry
	varKinds map[string]varKind
	newNodes map[graph.OID]bool
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
	for _, e := range n.envs {
		ev.rows++
		if ev.rows > ev.maxB {
			return fmt.Errorf("struql: binding relation exceeded %d rows; the query is probably missing a range restriction", ev.maxB)
		}
		if err := ev.construct(n.b, e, acc); err != nil {
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
			seed[i] = Binding(r)
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
		out := make([]env, len(planned))
		for i, r := range planned {
			out[i] = env(r)
		}
		if len(out) > ev.maxB {
			return nil, fmt.Errorf("struql: binding relation exceeded %d rows", ev.maxB)
		}
		return out, nil
	}
	remaining := make([]Condition, len(conds))
	copy(remaining, conds)
	bound := map[string]bool{}
	if len(rows) > 0 {
		for v := range rows[0] {
			bound[v] = true
		}
	}
	for len(remaining) > 0 {
		idx, score := ev.pickNext(remaining, bound)
		if score >= scoreNeedsDomain {
			// Active-domain fallback: bind one unbound variable of the
			// chosen condition to every element of the active domain.
			v, kind := firstUnbound(remaining[idx], bound)
			if v == "" {
				return nil, fmt.Errorf("struql: cannot order condition %s", remaining[idx])
			}
			in := len(rows)
			t0 := time.Now()
			domain := ev.activeDomain(kind)
			var next []env
			for _, r := range rows {
				for _, d := range domain {
					next = append(next, r.extend(v, d))
				}
			}
			if len(next) > ev.maxB {
				return nil, fmt.Errorf("struql: active-domain expansion of %q exceeded %d rows", v, ev.maxB)
			}
			rows = next
			bound[v] = true
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
func (ev *evaluator) interpMethod(c Condition, bound map[string]bool) string {
	termBound := func(t Term) bool { return !t.IsVar() || bound[t.Var] }
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
		if bound[c.Var] {
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
func (ev *evaluator) pickNext(conds []Condition, bound map[string]bool) (int, int) {
	best, bestScore := 0, 1<<30
	for i, c := range conds {
		s := ev.score(c, bound)
		if s < bestScore {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}

func (ev *evaluator) score(c Condition, bound map[string]bool) int {
	termBound := func(t Term) bool { return !t.IsVar() || bound[t.Var] }
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
		lb := c.Label.Var == "" || bound[c.Label.Var]
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
		if bound[c.Var] {
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
			if !bound[v] {
				return scoreNeedsDomain + 1000
			}
		}
		return 2
	default:
		return scoreNeedsDomain + 2000
	}
}

// firstUnbound returns one unbound variable of c and its kind.
func firstUnbound(c Condition, bound map[string]bool) (string, varKind) {
	vm := map[string]varKind{}
	c.vars(vm)
	names := make([]string, 0, len(vm))
	for v := range vm {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		if !bound[v] {
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

// resolve returns the value of a term under an environment.
func resolve(t Term, e env) (graph.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := e[t.Var]
	return v, ok
}

// expandRows applies one condition to the full relation. Past the
// parallel threshold the outer binding loop is chunked across pool
// workers: every expand* evaluator processes rows independently and in
// order, so the concatenation of the chunk outputs equals the
// sequential output row for row. Each chunk works on a copy of the
// bound-variable set; the canonical update of bound is replayed once
// afterwards with an empty relation (the updates depend only on the
// condition and the bound set, never on the rows).
func (ev *evaluator) expandRows(c Condition, rows []env, bound map[string]bool) ([]env, error) {
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
			return ev.expand(c, chunks[i], copyBound(bound))
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
// relation. bound is updated with newly bound variables.
func (ev *evaluator) expand(c Condition, rows []env, bound map[string]bool) ([]env, error) {
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

func (ev *evaluator) expandMembership(c *MembershipCond, rows []env, bound map[string]bool) ([]env, error) {
	isColl := ev.in.HasCollection(c.Collection)
	if !isColl {
		// Semantic-level resolution: not a collection, so it must be
		// an external predicate (paper Sec. 3).
		if fn, ok := ev.reg.objectPred(c.Collection); ok {
			var out []env
			for _, r := range rows {
				v, ok := resolve(c.Arg, r)
				if !ok {
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
	if !c.Arg.IsVar() || bound[c.Arg.Var] {
		var out []env
		for _, r := range rows {
			v, _ := resolve(c.Arg, r)
			if ev.in.InCollection(c.Collection, v) {
				out = append(out, r)
			}
		}
		return out, nil
	}
	members := ev.in.Collection(c.Collection)
	var out []env
	for _, r := range rows {
		for _, m := range members {
			out = append(out, r.extend(c.Arg.Var, m))
		}
	}
	bound[c.Arg.Var] = true
	return out, nil
}

func (ev *evaluator) expandEdge(c *EdgeCond, rows []env, bound map[string]bool) ([]env, error) {
	fromBound := !c.From.IsVar() || bound[c.From.Var]
	toBound := !c.To.IsVar() || bound[c.To.Var]
	labelBound := c.Label.Var == "" || bound[c.Label.Var]

	labelOK := func(r env, l string) bool {
		switch {
		case c.Label.Any:
			return true
		case c.Label.Var != "":
			if lv, ok := r[c.Label.Var]; ok {
				s, _ := lv.AsString()
				return s == l
			}
			return true // unbound: will bind
		default:
			return c.Label.Lit == l
		}
	}
	bindRow := func(r env, e graph.Edge) env {
		nr := r
		if c.From.IsVar() && !fromBound {
			nr = nr.extend(c.From.Var, graph.NodeValue(e.From))
		}
		if c.Label.Var != "" && !labelBound {
			nr = nr.extend(c.Label.Var, graph.Str(e.Label))
		}
		if c.To.IsVar() && !toBound {
			nr = nr.extend(c.To.Var, e.To)
		}
		return nr
	}
	toMatches := func(r env, to graph.Value) bool {
		if !toBound {
			return true
		}
		v, _ := resolve(c.To, r)
		return v == to
	}

	var out []env
	switch {
	case fromBound:
		for _, r := range rows {
			fv, _ := resolve(c.From, r)
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
			tv, _ := resolve(c.To, r)
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
	if c.From.IsVar() {
		bound[c.From.Var] = true
	}
	if c.To.IsVar() {
		bound[c.To.Var] = true
	}
	if c.Label.Var != "" {
		bound[c.Label.Var] = true
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

func (ev *evaluator) expandPath(c *PathCond, rows []env, bound map[string]bool) ([]env, error) {
	n, err := ev.pathNFA(c.Path)
	if err != nil {
		return nil, err
	}
	fromBound := !c.From.IsVar() || bound[c.From.Var]
	toBound := !c.To.IsVar() || bound[c.To.Var]

	sources := func(r env) []graph.Value {
		if fromBound {
			v, _ := resolve(c.From, r)
			return []graph.Value{v}
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
			targets := n.reach(ev.in, s)
			for _, t := range targets {
				nr := r
				if c.From.IsVar() && !fromBound {
					nr = nr.extend(c.From.Var, s)
				}
				if toBound {
					want, _ := resolve(c.To, nr)
					if t != want {
						continue
					}
				} else {
					nr = nr.extend(c.To.Var, t)
				}
				out = append(out, nr)
			}
		}
	}
	if c.From.IsVar() {
		bound[c.From.Var] = true
	}
	if c.To.IsVar() {
		bound[c.To.Var] = true
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

func (ev *evaluator) expandCompare(c *CompareCond, rows []env, bound map[string]bool) ([]env, error) {
	lb := !c.Left.IsVar() || bound[c.Left.Var]
	rb := !c.Right.IsVar() || bound[c.Right.Var]
	var out []env
	switch {
	case lb && rb:
		for _, r := range rows {
			lv, _ := resolve(c.Left, r)
			rv, _ := resolve(c.Right, r)
			if compareOK(lv, rv, c.Op) {
				out = append(out, r)
			}
		}
	case c.Op == OpEq && lb:
		for _, r := range rows {
			lv, _ := resolve(c.Left, r)
			out = append(out, r.extend(c.Right.Var, lv))
		}
		bound[c.Right.Var] = true
	case c.Op == OpEq && rb:
		for _, r := range rows {
			rv, _ := resolve(c.Right, r)
			out = append(out, r.extend(c.Left.Var, rv))
		}
		bound[c.Left.Var] = true
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

func (ev *evaluator) expandInSet(c *InSetCond, rows []env, bound map[string]bool) ([]env, error) {
	var out []env
	if bound[c.Var] {
		for _, r := range rows {
			s, _ := r[c.Var].AsString()
			for _, m := range c.Set {
				if m == s {
					out = append(out, r)
					break
				}
			}
		}
		return out, nil
	}
	for _, r := range rows {
		for _, m := range c.Set {
			out = append(out, r.extend(c.Var, graph.Str(m)))
		}
	}
	bound[c.Var] = true
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
	var out []env
	for _, r := range rows {
		vals := make([]graph.Value, len(c.Args))
		for i, a := range c.Args {
			v, bok := resolve(a, r)
			if !bok {
				return nil, fmt.Errorf("struql: predicate %s applied to unbound variable %q", c, a.Var)
			}
			vals[i] = v
		}
		if fn(vals) {
			out = append(out, r)
		}
	}
	return out, nil
}

func (ev *evaluator) expandNot(c *NotCond, rows []env, bound map[string]bool) ([]env, error) {
	var out []env
	for _, r := range rows {
		inner, err := ev.expand(c.Inner, []env{r}, copyBound(bound))
		if err != nil {
			return nil, err
		}
		if len(inner) == 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// dedupe removes duplicate rows; the binding relation is a set.
func dedupe(rows []env) []env {
	if len(rows) < 2 {
		return rows
	}
	seen := make(map[string]struct{}, len(rows))
	out := make([]env, 0, len(rows))
	for _, r := range rows {
		k := rowKey(r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

func rowKey(r env) string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(r[n].String())
		sb.WriteByte(';')
	}
	return sb.String()
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

// construct runs the block's create, link and collect clauses for one
// binding row. Links whose target is an aggregate accumulate into acc
// and are emitted by flushAggregates after all rows.
func (ev *evaluator) construct(b *Block, r env, acc map[aggKey]*aggState) error {
	for _, ct := range b.Creates {
		id, err := ev.skolemNode(ct, r)
		if err != nil {
			return err
		}
		ev.recordProv(b, id, r)
	}
	for li := range b.Links {
		l := b.Links[li]
		from, err := ev.resolveTarget(l.From, r)
		if err != nil {
			return err
		}
		if !from.IsNode() || !ev.newNodes[from.OID()] {
			return fmt.Errorf("struql: link %s adds an edge from existing object %s; existing nodes are immutable", l, from)
		}
		ev.recordProv(b, from.OID(), r)
		var label string
		switch {
		case l.Label.Var != "":
			lv, ok := r[l.Label.Var]
			if !ok {
				return fmt.Errorf("struql: link %s: arc variable %q unbound", l, l.Label.Var)
			}
			label, _ = lv.AsString()
		default:
			label = l.Label.Lit
		}
		if l.To.Agg != nil {
			v, ok := r[l.To.Agg.Var]
			if !ok {
				return fmt.Errorf("struql: aggregate %s: variable %q unbound", l.To.Agg, l.To.Agg.Var)
			}
			k := aggKey{link: &b.Links[li], from: from.OID(), label: label}
			st, ok2 := acc[k]
			if !ok2 {
				st = &aggState{op: l.To.Agg.Op, seen: map[graph.Value]struct{}{}, ord: len(acc)}
				acc[k] = st
			}
			if _, dup := st.seen[v]; !dup {
				st.seen[v] = struct{}{}
				st.vals = append(st.vals, v)
			}
			continue
		}
		to, err := ev.resolveTarget(l.To, r)
		if err != nil {
			return err
		}
		if to.IsNode() && ev.newNodes[to.OID()] {
			ev.recordProv(b, to.OID(), r)
		}
		if err := ev.out.AddEdge(from.OID(), label, to); err != nil {
			return err
		}
	}
	for _, c := range b.Collects {
		v, err := ev.resolveTarget(c.Target, r)
		if err != nil {
			return err
		}
		if v.IsNode() && ev.newNodes[v.OID()] {
			ev.recordProv(b, v.OID(), r)
		}
		ev.out.AddToCollection(c.Collection, v)
	}
	return nil
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
// stable across queries composed into the same output graph.
func (ev *evaluator) skolemNode(t SkolemTerm, r env) (graph.OID, error) {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		v, ok := resolve(a, r)
		if !ok {
			return 0, fmt.Errorf("struql: %s: variable %q unbound", t, a.Var)
		}
		args[i] = skolemArgKey(ev.in, v)
	}
	key := t.Func + "(" + strings.Join(args, ",") + ")"
	if id, ok := ev.out.NodeByName(key); ok {
		ev.newNodes[id] = true
		return id, nil
	}
	id := ev.out.NewNode(key)
	ev.newNodes[id] = true
	return id, nil
}

// skolemArgKey renders a Skolem argument. Node arguments use their
// symbolic name when available so site-graph node names read like the
// paper's (e.g. PaperPresentation(pub1)).
func skolemArgKey(g *graph.Graph, v graph.Value) string {
	if v.IsNode() {
		if n := g.NodeName(v.OID()); n != "" {
			return n
		}
	}
	return v.String()
}

func (ev *evaluator) resolveTarget(t LinkTarget, r env) (graph.Value, error) {
	if t.Skolem != nil {
		id, err := ev.skolemNode(*t.Skolem, r)
		if err != nil {
			return graph.Value{}, err
		}
		return graph.NodeValue(id), nil
	}
	v, ok := resolve(*t.Term, r)
	if !ok {
		return graph.Value{}, fmt.Errorf("struql: variable %q unbound in construction clause", t.Term.Var)
	}
	return v, nil
}
