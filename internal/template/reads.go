package template

// ReadSet is the tree of attribute labels a template can follow from
// the object it renders. The root stands for the object itself; the
// child under a label stands for that attribute's values, and its own
// children are what the template reads of those values in turn. A
// node with no children means the template uses the values themselves
// and nothing reachable from them. Values an SFMT may render as links
// read LinkText's labels for their anchors, unless a literal LINK="..."
// names the anchor; values EMBED marks render with their own template,
// whose read set then applies there.
//
// The tree follows evaluation exactly: an SFOR variable stands for its
// expression's node, a path whose first step names a variable in scope
// starts there, and an ORDER KEY path hangs under the values it sorts
// (or under a variable, the same way). A ReadSet is built once by
// Parse and never changes afterwards, so renderers may share it.
type ReadSet struct {
	children map[string]*ReadSet
	embed    bool
}

// Reads returns the template's read set.
func (t *Template) Reads() *ReadSet { return t.reads }

// Child returns what the template reads of the values under label, or
// nil when it never follows label from here.
func (r *ReadSet) Child(label string) *ReadSet { return r.children[label] }

// Leaf reports whether the template follows no attribute from here.
func (r *ReadSet) Leaf() bool { return len(r.children) == 0 }

// Embed reports whether an SFMT ... EMBED renders the values here.
func (r *ReadSet) Embed() bool { return r.embed }

func (r *ReadSet) child(label string) *ReadSet {
	c, ok := r.children[label]
	if !ok {
		c = &ReadSet{}
		if r.children == nil {
			r.children = map[string]*ReadSet{}
		}
		r.children[label] = c
	}
	return c
}

// readsOf computes a template's read set from its AST.
func readsOf(ns []node) *ReadSet {
	root := &ReadSet{}
	addReads(ns, root, nil)
	return root
}

// addReads walks ns with scope binding SFOR variables to their nodes.
func addReads(ns []node, root *ReadSet, scope map[string]*ReadSet) {
	for _, n := range ns {
		switch n := n.(type) {
		case *fmtNode:
			vals := readPath(n.expr, root, scope)
			if n.embed {
				vals.embed = true
			} else if n.linkLit == "" {
				// A LINK= expression that comes up empty falls back to
				// LinkText too.
				for _, label := range linkTextLabels {
					vals.child(label)
				}
			}
			if len(n.linkExpr) > 0 {
				readPath(n.linkExpr, root, scope)
			}
			addKeyReads(n.order, vals, scope)
		case *ifNode:
			addCondReads(n.cond, root, scope)
			addReads(n.then, root, scope)
			addReads(n.el, root, scope)
		case *forNode:
			vals := readPath(n.expr, root, scope)
			// The loop sorts before it binds its variable, so the
			// variable is not yet in scope for its own KEY.
			addKeyReads(n.order, vals, scope)
			inner := make(map[string]*ReadSet, len(scope)+1)
			for k, v := range scope {
				inner[k] = v
			}
			inner[n.varName] = vals
			addReads(n.body, root, inner)
		}
	}
}

// readPath adds expr's steps to the tree and returns the node of its
// values. Like evalAttrExpr, a first step naming a variable in scope
// starts at that variable; any other path starts at base.
func readPath(expr AttrExpr, base *ReadSet, scope map[string]*ReadSet) *ReadSet {
	cur, rest := base, expr
	if v, ok := scope[expr[0]]; ok {
		cur, rest = v, expr[1:]
	}
	for _, step := range rest {
		cur = cur.child(step)
	}
	return cur
}

// addKeyReads adds an ORDER KEY path under the values it sorts:
// sortValues evaluates it with each value as the current object.
func addKeyReads(ord *OrderSpec, vals *ReadSet, scope map[string]*ReadSet) {
	if ord != nil && len(ord.Key) > 0 {
		readPath(ord.Key, vals, scope)
	}
}

func addCondReads(c condExpr, root *ReadSet, scope map[string]*ReadSet) {
	switch c := c.(type) {
	case existsCond:
		readPath(c.expr, root, scope)
	case cmpCond:
		for _, o := range []operand{c.left, c.right} {
			if o.isExp {
				readPath(o.expr, root, scope)
			}
		}
	case andCond:
		addCondReads(c.left, root, scope)
		addCondReads(c.right, root, scope)
	case orCond:
		addCondReads(c.left, root, scope)
		addCondReads(c.right, root, scope)
	case notCond:
		addCondReads(c.inner, root, scope)
	}
}
