package template

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses template source. Tag names are case-insensitive; text
// outside SFMT/SIF/SFOR tags passes through verbatim.
func Parse(name, src string) (*Template, error) {
	p := &tparser{src: src, name: name}
	nodes, err := p.parseNodes("")
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected closing tag %q", p.pendingClose)
	}
	return &Template{Name: name, Source: src, nodes: nodes, reads: readsOf(nodes)}, nil
}

// MustParse parses a template and panics on error.
func MustParse(name, src string) *Template {
	t, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return t
}

type tparser struct {
	src          string
	name         string
	pos          int
	pendingClose string
}

func (p *tparser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("template %s: line %d: %s", p.name, line, fmt.Sprintf(format, args...))
}

// parseNodes parses until EOF or until a closing tag terminating the
// given construct ("sif" accepts </SIF> and <SELSE>, "sfor" accepts
// </SFOR>). The terminating tag is left for the caller to consume via
// pendingClose.
func (p *tparser) parseNodes(within string) ([]node, error) {
	var nodes []node
	for p.pos < len(p.src) {
		lt := strings.IndexByte(p.src[p.pos:], '<')
		if lt < 0 {
			nodes = append(nodes, textNode{text: p.src[p.pos:]})
			p.pos = len(p.src)
			return nodes, nil
		}
		if lt > 0 {
			nodes = append(nodes, textNode{text: p.src[p.pos : p.pos+lt]})
			p.pos += lt
		}
		tagName, tagBody, tagEnd, ok, err := p.peekTag()
		if err != nil {
			return nil, err
		}
		if !ok {
			// Not one of our tags: emit the '<' and continue.
			nodes = append(nodes, textNode{text: "<"})
			p.pos++
			continue
		}
		switch tagName {
		case "sfmt", "sfmt_ul", "sfmt_ol":
			n, err := p.parseFmt(tagName, tagBody)
			if err != nil {
				return nil, err
			}
			p.pos = tagEnd
			nodes = append(nodes, n)
		case "sif":
			p.pos = tagEnd
			n, err := p.parseIf(tagBody)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case "sfor":
			p.pos = tagEnd
			n, err := p.parseFor(tagBody)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case "selse", "/sif":
			if within != "sif" {
				return nil, p.errf("<%s> outside <SIF>", strings.ToUpper(tagName))
			}
			p.pendingClose = tagName
			return nodes, nil
		case "/sfor":
			if within != "sfor" {
				return nil, p.errf("</SFOR> without <SFOR>")
			}
			p.pendingClose = tagName
			return nodes, nil
		default:
			nodes = append(nodes, textNode{text: "<"})
			p.pos++
		}
	}
	if within != "" {
		return nil, p.errf("unterminated <%s>", strings.ToUpper(within))
	}
	return nodes, nil
}

// peekTag inspects the tag at p.pos (which points at '<'). It returns
// the lowercase tag name, the raw attribute text, the position just
// past '>', and whether this is a template tag. A malformed template
// tag (unterminated string, missing '>') is an error rather than being
// silently passed through. Inside an SIF tag, the closing '>' is found
// with awareness of quoted strings and comparison operators: '<', '>',
// '<=' and '>=' surrounded by spaces stay in the condition, so
// <SIF year > 1996> parses.
func (p *tparser) peekTag() (name, body string, end int, ok bool, err error) {
	// Read the tag name.
	i := p.pos + 1
	start := i
	for i < len(p.src) && p.src[i] != '>' && p.src[i] != '<' && !unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	name = strings.ToLower(p.src[start:i])
	switch name {
	case "sfmt", "sfmt_ul", "sfmt_ol", "sif", "selse", "/sif", "sfor", "/sfor":
	default:
		return "", "", 0, false, nil
	}
	isSIF := name == "sif"
	bodyStart := i
	gt := -1
scan:
	for ; i < len(p.src); i++ {
		switch p.src[i] {
		case '"':
			for i++; i < len(p.src) && p.src[i] != '"'; i++ {
				if p.src[i] == '\\' {
					i++
				}
			}
			if i >= len(p.src) {
				return "", "", 0, false, p.errf("unterminated string in <%s> tag", strings.ToUpper(name))
			}
		case '>':
			if isSIF {
				if i+1 < len(p.src) && p.src[i+1] == '=' {
					i++ // '>=' operator
					continue
				}
				if p.src[i-1] == ' ' && i+1 < len(p.src) && p.src[i+1] == ' ' {
					continue // ' > ' operator
				}
			}
			gt = i
			break scan
		case '<':
			if isSIF && p.src[i-1] == ' ' {
				continue // '<' or '<=' operator in a condition
			}
			return "", "", 0, false, p.errf("unexpected '<' inside <%s> tag", strings.ToUpper(name))
		}
	}
	if gt < 0 {
		return "", "", 0, false, p.errf("unterminated <%s> tag", strings.ToUpper(name))
	}
	return name, strings.TrimSpace(p.src[bodyStart:gt]), gt + 1, true, nil
}

// parseFmt parses an SFMT tag body: attrExpr then directives.
func (p *tparser) parseFmt(tagName, body string) (*fmtNode, error) {
	toks, err := tokenizeTag(body)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	if len(toks) == 0 {
		return nil, p.errf("<SFMT> missing attribute expression")
	}
	n := &fmtNode{}
	switch tagName {
	case "sfmt_ul":
		n.list = listUL
	case "sfmt_ol":
		n.list = listOL
	}
	expr, err := parseAttrExpr(toks[0].text)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	n.expr = expr
	for _, t := range toks[1:] {
		key := strings.ToUpper(t.text)
		switch {
		case key == "EMBED" && !t.isString && t.value == "":
			n.embed = true
		case key == "LINK":
			if t.value == "" && !t.valueIsString {
				return nil, p.errf("LINK= requires a value")
			}
			if t.valueIsString {
				n.linkLit = t.value
			} else {
				le, err := parseAttrExpr(t.value)
				if err != nil {
					return nil, p.errf("LINK=%s: %v", t.value, err)
				}
				n.linkExpr = le
			}
			n.hasLink = true
		case key == "ORDER":
			ord, err := parseOrder(t.value)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			n.order = ord
		case key == "KEY":
			if n.order == nil {
				return nil, p.errf("KEY= without ORDER=")
			}
			ke, err := parseAttrExpr(t.value)
			if err != nil {
				return nil, p.errf("KEY=%s: %v", t.value, err)
			}
			n.order.Key = ke
		case key == "DELIM":
			if !t.valueIsString {
				return nil, p.errf("DELIM= requires a quoted string")
			}
			n.delim = t.value
			n.hasDelim = true
		default:
			return nil, p.errf("unknown SFMT directive %q", t.text)
		}
	}
	return n, nil
}

// parseIf parses the SIF condition, then-branch, optional SELSE branch
// and closing tag.
func (p *tparser) parseIf(body string) (*ifNode, error) {
	cond, err := parseCond(body)
	if err != nil {
		return nil, p.errf("SIF condition: %v", err)
	}
	then, err := p.parseNodes("sif")
	if err != nil {
		return nil, err
	}
	n := &ifNode{cond: cond, then: then}
	if p.pendingClose == "selse" {
		p.pendingClose = ""
		// Skip past the <SELSE> tag itself.
		if err := p.consumeTag(); err != nil {
			return nil, err
		}
		el, err := p.parseNodes("sif")
		if err != nil {
			return nil, err
		}
		if p.pendingClose != "/sif" {
			return nil, p.errf("unterminated <SELSE>")
		}
		n.el = el
	}
	if p.pendingClose != "/sif" {
		return nil, p.errf("unterminated <SIF>")
	}
	p.pendingClose = ""
	return n, p.consumeTag()
}

// parseFor parses an SFOR tag: variable, attribute expression,
// optional directives; then the body and closing tag.
func (p *tparser) parseFor(body string) (*forNode, error) {
	toks, err := tokenizeTag(body)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	if len(toks) < 2 {
		return nil, p.errf("<SFOR> needs a variable and an attribute expression")
	}
	n := &forNode{varName: toks[0].text}
	expr, err := parseAttrExpr(toks[1].text)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	n.expr = expr
	for _, t := range toks[2:] {
		switch strings.ToUpper(t.text) {
		case "ORDER":
			ord, err := parseOrder(t.value)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			n.order = ord
		case "KEY":
			if n.order == nil {
				return nil, p.errf("KEY= without ORDER=")
			}
			ke, err := parseAttrExpr(t.value)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			n.order.Key = ke
		case "DELIM":
			n.delim = t.value
		default:
			return nil, p.errf("unknown SFOR directive %q", t.text)
		}
	}
	bodyNodes, err := p.parseNodes("sfor")
	if err != nil {
		return nil, err
	}
	if p.pendingClose != "/sfor" {
		return nil, p.errf("unterminated <SFOR>")
	}
	p.pendingClose = ""
	n.body = bodyNodes
	return n, p.consumeTag()
}

// consumeTag advances past the tag at p.pos.
func (p *tparser) consumeTag() error {
	gt := strings.IndexByte(p.src[p.pos:], '>')
	if gt < 0 {
		return p.errf("malformed tag")
	}
	p.pos += gt + 1
	return nil
}

func parseOrder(v string) (*OrderSpec, error) {
	switch strings.ToLower(v) {
	case "ascend", "asc":
		return &OrderSpec{}, nil
	case "descend", "desc":
		return &OrderSpec{Descend: true}, nil
	default:
		return nil, fmt.Errorf("ORDER must be ascend or descend, got %q", v)
	}
}

// parseAttrExpr parses ID(.ID)*, with an optional leading '@' (the
// Fig. 6 grammar writes attribute expressions as @ID.ID).
func parseAttrExpr(s string) (AttrExpr, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "@")
	if s == "" {
		return nil, fmt.Errorf("empty attribute expression")
	}
	parts := strings.Split(s, ".")
	for _, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("malformed attribute expression %q", s)
		}
		for _, r := range part {
			if r != '_' && r != '-' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				return nil, fmt.Errorf("bad character %q in attribute expression %q", r, s)
			}
		}
	}
	return AttrExpr(parts), nil
}

// tagToken is one token of a tag body: a bare word, KEY=value pair, or
// quoted string.
type tagToken struct {
	text          string // word or directive key
	value         string // directive value
	isString      bool
	valueIsString bool
}

// tokenizeTag splits a tag body into words and KEY=value pairs, with
// double-quoted values.
func tokenizeTag(body string) ([]tagToken, error) {
	var toks []tagToken
	i := 0
	for i < len(body) {
		r := body[i]
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			i++
			continue
		}
		if r == '"' {
			s, next, err := scanQuoted(body, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tagToken{text: s, isString: true})
			i = next
			continue
		}
		start := i
		for i < len(body) && !strings.ContainsRune(" \t\n\r=", rune(body[i])) {
			i++
		}
		word := body[start:i]
		if i < len(body) && body[i] == '=' {
			i++
			if i < len(body) && body[i] == '"' {
				s, next, err := scanQuoted(body, i)
				if err != nil {
					return nil, err
				}
				toks = append(toks, tagToken{text: word, value: s, valueIsString: true})
				i = next
				continue
			}
			vstart := i
			for i < len(body) && !strings.ContainsRune(" \t\n\r", rune(body[i])) {
				i++
			}
			toks = append(toks, tagToken{text: word, value: body[vstart:i]})
			continue
		}
		toks = append(toks, tagToken{text: word})
	}
	return toks, nil
}

func scanQuoted(s string, start int) (string, int, error) {
	i := start + 1
	var sb strings.Builder
	for i < len(s) {
		switch s[i] {
		case '"':
			return sb.String(), i + 1, nil
		case '\\':
			if i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					sb.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			return "", 0, fmt.Errorf("unterminated escape in tag")
		default:
			sb.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated string in tag")
}

// parseCond parses a SIF condition: OR-combination of AND-combinations
// of possibly negated primaries.
func parseCond(src string) (condExpr, error) {
	cp := &condParser{}
	if err := cp.tokenize(src); err != nil {
		return nil, err
	}
	c, err := cp.parseOr()
	if err != nil {
		return nil, err
	}
	if cp.pos < len(cp.toks) {
		return nil, fmt.Errorf("unexpected %q in condition", cp.toks[cp.pos].text)
	}
	return c, nil
}

type condTok struct {
	kind string // word, string, int, float, op, lparen, rparen
	text string
}

type condParser struct {
	toks []condTok
	pos  int
}

func (cp *condParser) tokenize(src string) error {
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			cp.toks = append(cp.toks, condTok{kind: "lparen"})
			i++
		case c == ')':
			cp.toks = append(cp.toks, condTok{kind: "rparen"})
			i++
		case c == '"':
			s, next, err := scanQuoted(src, i)
			if err != nil {
				return err
			}
			cp.toks = append(cp.toks, condTok{kind: "string", text: s})
			i = next
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			cp.toks = append(cp.toks, condTok{kind: "op", text: "!="})
			i += 2
		case c == '<' || c == '>':
			op := string(c)
			i++
			if i < len(src) && src[i] == '=' {
				op += "="
				i++
			}
			cp.toks = append(cp.toks, condTok{kind: "op", text: op})
		case c == '=':
			cp.toks = append(cp.toks, condTok{kind: "op", text: "="})
			i++
		case c == '-' || c >= '0' && c <= '9':
			start := i
			i++
			kind := "int"
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				if src[i] == '.' {
					kind = "float"
				}
				i++
			}
			cp.toks = append(cp.toks, condTok{kind: kind, text: src[start:i]})
		default:
			start := i
			for i < len(src) && (src[i] == '_' || src[i] == '-' || src[i] == '.' || src[i] == '@' ||
				unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			if i == start {
				return fmt.Errorf("unexpected character %q in condition", c)
			}
			cp.toks = append(cp.toks, condTok{kind: "word", text: src[start:i]})
		}
	}
	return nil
}

func (cp *condParser) peekWord(w string) bool {
	return cp.pos < len(cp.toks) && cp.toks[cp.pos].kind == "word" && strings.EqualFold(cp.toks[cp.pos].text, w)
}

func (cp *condParser) parseOr() (condExpr, error) {
	left, err := cp.parseAnd()
	if err != nil {
		return nil, err
	}
	for cp.peekWord("OR") {
		cp.pos++
		right, err := cp.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orCond{left: left, right: right}
	}
	return left, nil
}

func (cp *condParser) parseAnd() (condExpr, error) {
	left, err := cp.parseUnary()
	if err != nil {
		return nil, err
	}
	for cp.peekWord("AND") {
		cp.pos++
		right, err := cp.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andCond{left: left, right: right}
	}
	return left, nil
}

func (cp *condParser) parseUnary() (condExpr, error) {
	if cp.peekWord("NOT") {
		cp.pos++
		inner, err := cp.parseUnary()
		if err != nil {
			return nil, err
		}
		return notCond{inner: inner}, nil
	}
	if cp.pos < len(cp.toks) && cp.toks[cp.pos].kind == "lparen" {
		cp.pos++
		inner, err := cp.parseOr()
		if err != nil {
			return nil, err
		}
		if cp.pos >= len(cp.toks) || cp.toks[cp.pos].kind != "rparen" {
			return nil, fmt.Errorf("missing ')' in condition")
		}
		cp.pos++
		return inner, nil
	}
	return cp.parseComparison()
}

func (cp *condParser) parseComparison() (condExpr, error) {
	left, err := cp.parseOperand()
	if err != nil {
		return nil, err
	}
	if cp.pos >= len(cp.toks) || cp.toks[cp.pos].kind != "op" {
		// Bare attribute expression: existence test.
		if !left.isExp {
			return nil, fmt.Errorf("constant alone is not a condition")
		}
		return existsCond{expr: left.expr}, nil
	}
	opTok := cp.toks[cp.pos].text
	cp.pos++
	right, err := cp.parseOperand()
	if err != nil {
		return nil, err
	}
	ops := map[string]cmpOp{"=": cmpEq, "!=": cmpNeq, "<": cmpLt, "<=": cmpLe, ">": cmpGt, ">=": cmpGe}
	return cmpCond{left: left, right: right, op: ops[opTok]}, nil
}

func (cp *condParser) parseOperand() (operand, error) {
	if cp.pos >= len(cp.toks) {
		return operand{}, fmt.Errorf("missing operand")
	}
	t := cp.toks[cp.pos]
	cp.pos++
	switch t.kind {
	case "string":
		return operand{konst: strValue(t.text)}, nil
	case "int":
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return operand{}, err
		}
		return operand{konst: intValue(n)}, nil
	case "float":
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return operand{}, err
		}
		return operand{konst: floatValue(f)}, nil
	case "word":
		switch strings.ToUpper(t.text) {
		case "NULL":
			return operand{null: true}, nil
		case "TRUE":
			return operand{konst: boolValue(true)}, nil
		case "FALSE":
			return operand{konst: boolValue(false)}, nil
		}
		expr, err := parseAttrExpr(t.text)
		if err != nil {
			return operand{}, err
		}
		return operand{expr: expr, isExp: true}, nil
	default:
		return operand{}, fmt.Errorf("unexpected %q in condition", t.text)
	}
}
