// Package template implements STRUDEL's HTML-template language (paper
// Sec. 4, Fig. 6): plain HTML extended with three expressions, each of
// which produces plain HTML text:
//
//   - a format expression   <SFMT attrExpr [EMBED] [LINK=tag]
//     [ORDER=ascend|descend [KEY=attrExpr]] [DELIM="sep"]>
//     (with <SFMT_UL ...> and <SFMT_OL ...> list shorthands),
//   - a conditional         <SIF cond> ... [<SELSE> ...] </SIF>,
//   - an enumeration        <SFOR id attrExpr [ORDER=...] [DELIM=...]>
//     ... </SFOR>.
//
// An attribute expression is a single attribute or a bounded sequence
// of attributes referencing reachable objects (e.g. Paper.Name),
// optionally rooted at an SFOR variable. Conditions test attribute
// existence (non-null) and compare attribute expressions with
// constants using =, !=, <, <=, >, >=, combined with AND, OR, NOT.
package template

import (
	"fmt"
	"strings"

	"strudel/internal/graph"
)

// Template is a parsed HTML template.
type Template struct {
	Name   string
	Source string
	nodes  []node
	reads  *ReadSet
}

type node interface{ isNode() }

// textNode is literal HTML emitted verbatim.
type textNode struct {
	text string
}

// AttrExpr is a dotted attribute path, e.g. ["Paper", "Name"]. The
// first component resolves against the enumeration variables in scope
// before falling back to an attribute of the current object.
type AttrExpr []string

func (a AttrExpr) String() string { return strings.Join(a, ".") }

// OrderSpec is the ORDER directive: sort the values ascending or
// descending, optionally by a KEY attribute of object values.
type OrderSpec struct {
	Descend bool
	Key     AttrExpr
}

// listKind selects the SFMT list shorthand.
type listKind int

const (
	listNone listKind = iota
	listUL
	listOL
)

// fmtNode is a format expression.
type fmtNode struct {
	expr  AttrExpr
	embed bool
	// linkTag is the LINK= tag: an attribute expression or literal
	// string used as the anchor text for link-rendered values.
	linkExpr AttrExpr
	linkLit  string
	hasLink  bool
	order    *OrderSpec
	delim    string
	hasDelim bool
	list     listKind
}

// ifNode is a conditional expression.
type ifNode struct {
	cond     condExpr
	then, el []node
}

// forNode is an enumeration expression.
type forNode struct {
	varName string
	expr    AttrExpr
	order   *OrderSpec
	delim   string
	body    []node
}

func (textNode) isNode() {}
func (*fmtNode) isNode() {}
func (*ifNode) isNode()  {}
func (*forNode) isNode() {}

// condExpr is a template condition.
type condExpr interface{ isCond() }

// existsCond tests whether an attribute expression is non-null.
type existsCond struct {
	expr AttrExpr
}

// cmpCond compares two operands.
type cmpCond struct {
	left, right operand
	op          cmpOp
}

type andCond struct{ left, right condExpr }
type orCond struct{ left, right condExpr }
type notCond struct{ inner condExpr }

func (existsCond) isCond() {}
func (cmpCond) isCond()    {}
func (andCond) isCond()    {}
func (orCond) isCond()     {}
func (notCond) isCond()    {}

// operand is an attribute expression or a constant; null marks the
// NULL keyword.
type operand struct {
	expr  AttrExpr
	konst graph.Value
	null  bool
	isExp bool
}

type cmpOp int

const (
	cmpEq cmpOp = iota
	cmpNeq
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func (o cmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// NumNodes reports the number of AST nodes, a complexity metric used
// by the experiment harness to report template sizes.
func (t *Template) NumNodes() int { return countNodes(t.nodes) }

func countNodes(ns []node) int {
	total := 0
	for _, n := range ns {
		total++
		switch n := n.(type) {
		case *ifNode:
			total += countNodes(n.then) + countNodes(n.el)
		case *forNode:
			total += countNodes(n.body)
		}
	}
	return total
}

// Lines reports the template source's line count, matching how the
// paper reports template sizes (e.g. "17 HTML templates (380 lines)").
func (t *Template) Lines() int {
	if t.Source == "" {
		return 0
	}
	return strings.Count(t.Source, "\n") + 1
}

func (t *Template) String() string {
	return fmt.Sprintf("template %s (%d lines, %d nodes)", t.Name, t.Lines(), t.NumNodes())
}
