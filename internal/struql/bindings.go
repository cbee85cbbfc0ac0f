package struql

import "strudel/internal/graph"

// Binding is one row of a binding relation, exposed for the
// incremental evaluator and the optimizer: variable name → value.
// Arc variables bind to string atoms carrying the edge label.
type Binding = map[string]graph.Value

// EvalBindings evaluates a condition list (one conjunction) against a
// graph, extending the seed rows, and returns the satisfying binding
// relation. It is the query stage of StruQL in isolation — the
// incremental evaluator uses it to compute a single page's bindings at
// click time (paper Sec. 6, [FER 98c]). A seed row the conjunction
// passes through unchanged is returned as the seed's own map.
func EvalBindings(input *graph.Graph, reg *Registry, conds []Condition, seed []Binding) ([]Binding, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	// Number the conjunction's variables and those the seed rows carry:
	// the optimizer seeds one condition at a time with rows that bind
	// variables the condition does not name, and they pass through
	// unchanged. Its rows all bind the same variables, so seed[0] names
	// them; only a row that binds another one numbers every row's.
	s := newSlots(bindingVars(conds, seed[:min(len(seed), 1)]))
	rows, missing := s.rows(seed)
	if missing != "" {
		s = newSlots(bindingVars(conds, seed))
		rows, _ = s.rows(seed)
	}
	in := rows
	if len(seed) == 0 {
		in = []env{s.row()}
	}
	ev := &evaluator{
		in:       input,
		out:      nil,
		reg:      reg,
		slots:    s,
		newNodes: map[graph.OID]bool{},
		nfaCache: map[*PathExpr]*nfa{},
		maxB:     defaultMaxBindings,
	}
	out, err := ev.applyWhere(conds, in, nil)
	if err != nil {
		return nil, err
	}
	out = dedupe(out)
	// A conjunction binds the same variables in every row. If it binds
	// none, it only filters: each output row is a seed row itself (a row
	// is never written once built), in seed order, and is returned as
	// the seed's map. Otherwise every output row is new, and the first
	// scan for one runs past the last seed.
	res := make([]Binding, len(out))
	j := 0
	for i, r := range out {
		for j < len(rows) && !sameRow(rows[j], r) {
			j++
		}
		if j < len(rows) {
			res[i] = seed[j]
			continue
		}
		res[i] = s.binding(r)
	}
	return res, nil
}

// sameRow reports whether a and b are one row, not merely equal ones.
func sameRow(a, b env) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// bindingVars returns the variables of a conjunction and of the seed
// rows.
func bindingVars(conds []Condition, seed []Binding) map[string]varKind {
	vars := map[string]varKind{}
	for _, b := range seed {
		for name := range b {
			vars[name] = nodeVar
		}
	}
	for _, c := range conds {
		c.vars(vars)
	}
	return vars
}
