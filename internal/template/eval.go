package template

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"strudel/internal/graph"
)

// Tiny aliases keep parser.go free of a graph import cycle of names.
func strValue(s string) graph.Value    { return graph.Str(s) }
func intValue(n int64) graph.Value     { return graph.Int(n) }
func floatValue(f float64) graph.Value { return graph.Float(f) }
func boolValue(b bool) graph.Value     { return graph.Bool(b) }

// RenderOpts carry the SFMT directives that affect how a single value
// is rendered.
type RenderOpts struct {
	// Embed forces embedding of internal objects instead of linking.
	Embed bool
	// LinkTag is the anchor text for link-rendered values ("" means
	// use a type-specific default).
	LinkTag string
}

// ValueRenderer renders one value reference into HTML. The HTML
// generator (package sitegen) supplies an implementation that knows
// which objects are realized as pages and where their files live; the
// template package's DefaultRenderer covers atoms only.
type ValueRenderer func(v graph.Value, opts RenderOpts) (string, error)

// Env is the evaluation context for one template execution.
type Env struct {
	// Graph is the site graph the object lives in.
	Graph *graph.Graph
	// Self is the current object.
	Self graph.OID
	// Vars holds SFOR variable bindings; nil is fine.
	Vars map[string]graph.Value
	// Render renders value references; nil uses DefaultRenderer.
	Render ValueRenderer
}

// DefaultRenderer renders atomic values using the paper's
// type-specific rules: most atoms convert to an (escaped) string;
// PostScript and image files render as links since they should not be
// realized as strings. Internal objects render as their display name —
// the site generator overrides this with page links or embedding.
func DefaultRenderer(g *graph.Graph) ValueRenderer {
	return func(v graph.Value, opts RenderOpts) (string, error) {
		return RenderAtom(g, v, opts)
	}
}

// RenderAtom implements the type-specific rendering rules for atomic
// values; node values fall back to their display name.
func RenderAtom(g *graph.Graph, v graph.Value, opts RenderOpts) (string, error) {
	switch v.Kind() {
	case graph.KindNode:
		return html.EscapeString(g.DisplayName(v.OID())), nil
	case graph.KindString, graph.KindInt, graph.KindFloat, graph.KindBool:
		return html.EscapeString(v.Text()), nil
	case graph.KindURL:
		tag := opts.LinkTag
		if tag == "" {
			tag = v.Text()
		}
		return fmt.Sprintf("<a href=%q>%s</a>", v.Text(), html.EscapeString(tag)), nil
	case graph.KindFile:
		switch v.FileType() {
		case graph.FilePostScript, graph.FileImage, graph.FileUnknown:
			// Values that should not be realized as strings get an
			// appropriate link (images additionally an <img>).
			if v.FileType() == graph.FileImage && opts.LinkTag == "" {
				return fmt.Sprintf("<img src=%q>", v.Text()), nil
			}
			tag := opts.LinkTag
			if tag == "" {
				tag = v.Text()
			}
			return fmt.Sprintf("<a href=%q>%s</a>", v.Text(), html.EscapeString(tag)), nil
		default:
			// Text and HTML files embed by reference path; the site
			// generator substitutes file contents when a resolver is
			// configured.
			return html.EscapeString(v.Text()), nil
		}
	default:
		return "", fmt.Errorf("template: cannot render %v", v)
	}
}

// linkTextLabels are the attributes LinkText reads, in priority order.
var linkTextLabels = [...]string{"title", "name", "Name", "Year"}

// LinkText is the anchor text of a link to an object that no LINK=
// directive names, and the title of the object's page: the first value
// of its title, name, Name or Year attribute, tried in that order and
// taken when atomic, else the object's display name.
func LinkText(g *graph.Graph, oid graph.OID) string {
	for _, label := range linkTextLabels {
		if v, ok := g.First(oid, label); ok && v.IsAtom() {
			return v.Text()
		}
	}
	return g.DisplayName(oid)
}

// Execute renders the template for env.Self, writing plain HTML.
func (t *Template) Execute(w io.Writer, env *Env) error {
	if env.Graph == nil {
		return fmt.Errorf("template %s: no graph in environment", t.Name)
	}
	if env.Render == nil {
		env.Render = DefaultRenderer(env.Graph)
	}
	return execNodes(w, t.nodes, env)
}

// ExecuteString renders to a string.
func (t *Template) ExecuteString(env *Env) (string, error) {
	var sb strings.Builder
	if err := t.Execute(&sb, env); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func execNodes(w io.Writer, ns []node, env *Env) error {
	for _, n := range ns {
		switch n := n.(type) {
		case textNode:
			if _, err := io.WriteString(w, n.text); err != nil {
				return err
			}
		case *fmtNode:
			if err := execFmt(w, n, env); err != nil {
				return err
			}
		case *ifNode:
			ok, err := evalCond(n.cond, env)
			if err != nil {
				return err
			}
			branch := n.then
			if !ok {
				branch = n.el
			}
			if err := execNodes(w, branch, env); err != nil {
				return err
			}
		case *forNode:
			if err := execFor(w, n, env); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalAttrExpr evaluates an attribute expression to all its values.
// The first component resolves against SFOR variables, then as an
// attribute of the current object; later components traverse edges of
// object values (multi-valued steps flatten).
func evalAttrExpr(expr AttrExpr, env *Env) []graph.Value {
	var current []graph.Value
	rest := expr
	if v, ok := env.Vars[expr[0]]; ok {
		current = []graph.Value{v}
		rest = expr[1:]
	} else {
		current = []graph.Value{graph.NodeValue(env.Self)}
	}
	for _, step := range rest {
		var next []graph.Value
		for _, v := range current {
			if !v.IsNode() {
				continue
			}
			next = append(next, env.Graph.OutLabel(v.OID(), step)...)
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

// sortValues applies an ORDER directive. Sort keys are computed once
// per element rather than inside the comparator: a KEY lookup walks
// the graph, and re-evaluating it per comparison turns an n-element
// list into O(n log n) graph reads — visible on large index pages.
func sortValues(vals []graph.Value, ord *OrderSpec, env *Env) {
	type decorated struct {
		key, val graph.Value
	}
	rows := make([]decorated, len(vals))
	for i, v := range vals {
		k := v
		if len(ord.Key) > 0 && v.IsNode() {
			sub := &Env{Graph: env.Graph, Self: v.OID(), Vars: env.Vars, Render: env.Render}
			if ks := evalAttrExpr(ord.Key, sub); len(ks) > 0 {
				k = ks[0]
			} else {
				k = graph.Str("")
			}
		}
		rows[i] = decorated{key: k, val: v}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		cmp, ok := graph.Compare(rows[i].key, rows[j].key)
		if !ok {
			// Fall back to the deterministic total order.
			if graph.Less(rows[i].key, rows[j].key) {
				cmp = -1
			} else {
				cmp = 1
			}
		}
		if ord.Descend {
			return cmp > 0
		}
		return cmp < 0
	})
	for i := range rows {
		vals[i] = rows[i].val
	}
}

func execFmt(w io.Writer, n *fmtNode, env *Env) error {
	vals := evalAttrExpr(n.expr, env)
	if len(vals) == 0 {
		return nil
	}
	if n.order != nil {
		sortValues(vals, n.order, env)
	}
	opts := RenderOpts{Embed: n.embed}
	if n.hasLink {
		if n.linkLit != "" {
			opts.LinkTag = n.linkLit
		} else if len(n.linkExpr) > 0 {
			lv := evalAttrExpr(n.linkExpr, env)
			if len(lv) > 0 {
				opts.LinkTag = lv[0].Text()
			}
		}
	}
	delim := n.delim
	if !n.hasDelim && n.list == listNone {
		delim = " "
	}
	var open, close1, iopen, iclose string
	switch n.list {
	case listUL:
		open, close1, iopen, iclose = "<ul>\n", "</ul>\n", "<li>", "</li>\n"
	case listOL:
		open, close1, iopen, iclose = "<ol>\n", "</ol>\n", "<li>", "</li>\n"
	}
	if _, err := io.WriteString(w, open); err != nil {
		return err
	}
	for i, v := range vals {
		if i > 0 && delim != "" {
			if _, err := io.WriteString(w, delim); err != nil {
				return err
			}
		}
		s, err := env.Render(v, opts)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, iopen+s+iclose); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, close1)
	return err
}

func execFor(w io.Writer, n *forNode, env *Env) error {
	vals := evalAttrExpr(n.expr, env)
	if n.order != nil {
		sortValues(vals, n.order, env)
	}
	for i, v := range vals {
		if i > 0 && n.delim != "" {
			if _, err := io.WriteString(w, n.delim); err != nil {
				return err
			}
		}
		sub := &Env{Graph: env.Graph, Self: env.Self, Render: env.Render,
			Vars: extendVars(env.Vars, n.varName, v)}
		if err := execNodes(w, n.body, sub); err != nil {
			return err
		}
	}
	return nil
}

func extendVars(vars map[string]graph.Value, name string, v graph.Value) map[string]graph.Value {
	out := make(map[string]graph.Value, len(vars)+1)
	for k, val := range vars {
		out[k] = val
	}
	out[name] = v
	return out
}

func evalCond(c condExpr, env *Env) (bool, error) {
	switch c := c.(type) {
	case existsCond:
		return len(evalAttrExpr(c.expr, env)) > 0, nil
	case notCond:
		ok, err := evalCond(c.inner, env)
		return !ok, err
	case andCond:
		l, err := evalCond(c.left, env)
		if err != nil || !l {
			return false, err
		}
		return evalCond(c.right, env)
	case orCond:
		l, err := evalCond(c.left, env)
		if err != nil || l {
			return l, err
		}
		return evalCond(c.right, env)
	case cmpCond:
		lv, lnull := evalOperand(c.left, env)
		rv, rnull := evalOperand(c.right, env)
		// NULL comparisons express existence tests.
		if lnull || rnull {
			eq := lnull == rnull
			switch c.op {
			case cmpEq:
				return eq, nil
			case cmpNeq:
				return !eq, nil
			default:
				return false, nil
			}
		}
		cmp, ok := graph.Compare(lv, rv)
		if !ok {
			return c.op == cmpNeq, nil
		}
		switch c.op {
		case cmpEq:
			return cmp == 0, nil
		case cmpNeq:
			return cmp != 0, nil
		case cmpLt:
			return cmp < 0, nil
		case cmpLe:
			return cmp <= 0, nil
		case cmpGt:
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	default:
		return false, fmt.Errorf("template: unknown condition %T", c)
	}
}

// evalOperand returns the operand's value; null reports a NULL
// constant or an attribute expression with no values.
func evalOperand(o operand, env *Env) (graph.Value, bool) {
	if o.null {
		return graph.Value{}, true
	}
	if !o.isExp {
		return o.konst, false
	}
	vals := evalAttrExpr(o.expr, env)
	if len(vals) == 0 {
		return graph.Value{}, true
	}
	return vals[0], false
}
