package struql

import (
	"strings"
	"testing"

	"strudel/internal/graph"
)

// Targeted tests for the less-traveled paths: condition String
// renderings, the active-domain atom enumeration, string-escape
// lexing, comparisons of incomparable values, and in-set filtering of
// pre-bound variables.

func TestConditionStringRenderings(t *testing.T) {
	q := MustParse(`
WHERE C(x), x -> "a" -> y, x -> l -> z, x -> "p"."q" -> w,
      l in {"a", "b"}, not(isImageFile(z)), y != 3, sameAs(x, y)
COLLECT Out(x)`)
	var parts []string
	for _, c := range q.Root.Where {
		parts = append(parts, c.String())
	}
	joined := strings.Join(parts, "; ")
	for _, want := range []string{
		`C(x)`, `x -> "a" -> y`, `x -> l -> z`, `("p"."q")`,
		`l in {"a", "b"}`, `not(isImageFile(z))`, `y != 3`, `sameAs(x, y)`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("renderings missing %q: %s", want, joined)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	// Error messages must name every token kind readably.
	for k := tEOF; k <= tGe; k++ {
		if s := k.String(); s == "" || s == "token" {
			t.Errorf("kind %d renders as %q", k, s)
		}
	}
}

func TestLexerStringEscapes(t *testing.T) {
	q := MustParse(`WHERE x -> "a\n\t\"\\b" -> y COLLECT Out(y)`)
	ec := q.Root.Where[0].(*EdgeCond)
	if ec.Label.Lit != "a\n\t\"\\b" {
		t.Errorf("escaped label = %q", ec.Label.Lit)
	}
	for _, bad := range []string{
		`WHERE x -> "unterminated -> y COLLECT C(y)`,
		`WHERE x -> "bad\qescape" -> y COLLECT C(y)`,
		"WHERE x -> \"new\nline\" -> y COLLECT C(y)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected lexer error for %q", bad)
		}
	}
}

func TestActiveDomainIncludesCollectionAtoms(t *testing.T) {
	// Atoms that appear only as collection members are still part of
	// the active domain.
	g := graph.New("g")
	n := g.NewNode("n")
	g.AddEdge(n, "x", graph.Int(1))
	g.AddToCollection("C", graph.Str("atom-member"))
	q := MustParse(`WHERE not(p -> "x" -> p) COLLECT All(p)`)
	res, err := Eval(q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Output.Collection("All") {
		if v == graph.Str("atom-member") {
			found = true
		}
	}
	if !found {
		t.Errorf("All = %v", res.Output.Collection("All"))
	}
}

func TestCompareIncomparableValues(t *testing.T) {
	// A node never equals an atom; != is satisfied, orderings are not.
	g := graph.New("g")
	n := g.NewNode("n")
	g.AddToCollection("C", graph.NodeValue(n))
	g.AddEdge(n, "v", graph.Int(1))
	q := MustParse(`WHERE C(x), x -> "v" -> v, x != v COLLECT Out(x)`)
	res, err := Eval(q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Collection("Out")) != 1 {
		t.Error("incomparable != should hold")
	}
	q2 := MustParse(`WHERE C(x), x -> "v" -> v, x < v COLLECT Out(x)`)
	res2, err := Eval(q2, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Output.Collection("Out")) != 0 {
		t.Error("incomparable < should not hold")
	}
}

func TestInSetFilterOnBoundVariable(t *testing.T) {
	g := graph.New("g")
	n := g.NewNode("n")
	g.AddToCollection("C", graph.NodeValue(n))
	g.AddEdge(n, "keep", graph.Int(1))
	g.AddEdge(n, "drop", graph.Int(2))
	// l binds via the edge condition first (generator), then the set
	// condition filters it.
	q := MustParse(`WHERE C(x), x -> l -> v, l in {"keep"} COLLECT Out(v)`)
	res, err := Eval(q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.Collection("Out")
	if len(out) != 1 || out[0] != graph.Int(1) {
		t.Errorf("Out = %v", out)
	}
}

func TestMultiArgPredicate(t *testing.T) {
	g := graph.New("g")
	n := g.NewNode("n")
	g.AddToCollection("C", graph.NodeValue(n))
	g.AddEdge(n, "a", graph.Int(1))
	g.AddEdge(n, "b", graph.Int(1))
	reg := NewRegistry()
	reg.RegisterMulti("eq2", func(vs []graph.Value) bool {
		return len(vs) == 2 && graph.Eq(vs[0], vs[1])
	})
	q := MustParse(`WHERE C(x), x -> "a" -> a, x -> "b" -> b, eq2(a, b) COLLECT Out(x)`)
	res, err := Eval(q, g, &Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Collection("Out")) != 1 {
		t.Error("multi-arg predicate failed")
	}
	// Unknown multi-arg predicate errors.
	q2 := MustParse(`WHERE C(x), x -> "a" -> a, nosuch(a, a) COLLECT Out(x)`)
	if _, err := Eval(q2, g, nil); err == nil {
		t.Error("unknown predicate should fail")
	}
	// Unary predicate invoked with two args through the object
	// registry fallback is rejected too.
	q3 := MustParse(`WHERE C(x), x -> "a" -> a, isInt(a, a) COLLECT Out(x)`)
	if _, err := Eval(q3, g, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestParseSkolemWithConstArgs(t *testing.T) {
	q := MustParse(`WHERE C(x) CREATE F("lit", 3, x) LINK F("lit", 3, x) -> "v" -> x`)
	ct := q.Root.Creates[0]
	if len(ct.Args) != 3 || ct.Args[0].Const != graph.Str("lit") || ct.Args[1].Const != graph.Int(3) {
		t.Errorf("skolem args = %v", ct.Args)
	}
	if !strings.Contains(ct.String(), `F("lit", 3, x)`) {
		t.Errorf("String = %s", ct.String())
	}
}

func TestParseCollectMultiple(t *testing.T) {
	q := MustParse(`WHERE C(x) CREATE F(x) COLLECT A(x), B(F(x)), D("const")`)
	if len(q.Root.Collects) != 3 {
		t.Fatalf("collects = %v", q.Root.Collects)
	}
	if q.Root.Collects[2].Target.Term.Const != graph.Str("const") {
		t.Errorf("const collect = %v", q.Root.Collects[2])
	}
}

// TestEvalCollectMultiple: each collect clause of a block fills its own
// collection.
func TestEvalCollectMultiple(t *testing.T) {
	g := graph.New("g")
	g.AddToCollection("C", graph.Str("a"))
	res, err := Eval(MustParse(`WHERE C(x) CREATE F(x) COLLECT A(x), B(F(x)), D("const")`), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	f, _ := out.NodeByName(`F("a")`)
	for name, want := range map[string]graph.Value{"A": graph.Str("a"), "B": graph.NodeValue(f), "D": graph.Str("const")} {
		if got := out.Collection(name); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
}

func TestParseGraphNameDotted(t *testing.T) {
	q := MustParse(`INPUT src.people.csv WHERE C(x) COLLECT Out(x) OUTPUT out.graph`)
	if q.Input != "src.people.csv" || q.Output != "out.graph" {
		t.Errorf("input=%q output=%q", q.Input, q.Output)
	}
	if _, err := Parse(`INPUT a. WHERE C(x) COLLECT Out(x)`); err == nil {
		t.Error("trailing dot should fail")
	}
}

func TestEvalEmptyParentRows(t *testing.T) {
	// A child under a zero-binding parent constructs nothing and does
	// not error, even with conditions that would need the domain.
	g := graph.New("g")
	q := MustParse(`
WHERE Missing(x)
CREATE F(x)
{ WHERE x -> "v" -> v, v > 3 LINK F(x) -> "big" -> v }`)
	// Missing is not a collection: error expected instead.
	if _, err := Eval(q, g, nil); err == nil {
		t.Error("unknown collection should fail")
	}
	g.DeclareCollection("Missing")
	res, err := Eval(q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings != 0 || res.NewNodes != 0 {
		t.Errorf("result = %+v", res)
	}
}
