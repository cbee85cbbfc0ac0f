package struql

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
)

const fig2Data = `
collection Publications {
    abstract text
    postscript ps
}
object pub1 in Publications {
    title "Specifying Representations..."
    author "Norman Ramsey"
    author "Mary Fernandez"
    year 1997
    month "May"
    journal "Transactions on Programming..."
    pub-type "article"
    abstract "abstracts/toplas97.txt"
    postscript "papers/toplas97.ps.gz"
    category "Architecture Specifications"
    category "Programming Languages"
}
object pub2 in Publications {
    title "Optimizing Regular..."
    author "Mary Fernandez"
    author "Dan Suciu"
    year 1998
    booktitle "Proc. of ICDE"
    pub-type "inproceedings"
    abstract "abstracts/icde98.txt"
    postscript "papers/icde98.ps.gz"
    category "Semistructured Data"
    category "Programming Languages"
}
`

func fig2Graph(t *testing.T) *graph.Graph {
	t.Helper()
	res, err := datadef.Parse("BIBTEX", fig2Data)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func mustEval(t *testing.T, q *Query, in *graph.Graph, opts *Options) *Result {
	t.Helper()
	res, err := Eval(q, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvalCollectSimple(t *testing.T) {
	// The paper's first example: all PostScript papers directly
	// accessible from home pages.
	g := graph.New("g")
	hp := g.NewNode("hp")
	g.AddToCollection("HomePages", graph.NodeValue(hp))
	g.AddEdge(hp, "Paper", graph.File("a.ps", graph.FilePostScript))
	g.AddEdge(hp, "Paper", graph.Str("not-ps"))
	q := MustParse(`WHERE HomePages(p), p -> "Paper" -> q, isPostScript(q) COLLECT PostscriptPages(q)`)
	res := mustEval(t, q, g, nil)
	got := res.Output.Collection("PostscriptPages")
	if len(got) != 1 || got[0].FileType() != graph.FilePostScript {
		t.Errorf("PostscriptPages = %v", got)
	}
}

// TestEvalFig3 evaluates the paper's Fig. 3 site-definition query over
// the Fig. 2 data and verifies the Fig. 4 site-graph fragment.
func TestEvalFig3(t *testing.T) {
	g := fig2Graph(t)
	q := MustParse(fig3)
	res := mustEval(t, q, g, nil)
	site := res.Output
	if site.Name() != "HomePage" {
		t.Errorf("output graph name = %q", site.Name())
	}

	root, ok := site.NodeByName("RootPage()")
	if !ok {
		t.Fatal("RootPage() missing")
	}
	// Root links to AbstractsPage, two YearPages, three CategoryPages.
	if n := len(site.OutLabel(root, "YearPage")); n != 2 {
		t.Errorf("RootPage has %d YearPage links, want 2", n)
	}
	if n := len(site.OutLabel(root, "CategoryPage")); n != 3 {
		t.Errorf("RootPage has %d CategoryPage links, want 3", n)
	}
	if n := len(site.OutLabel(root, "AbstractsPage")); n != 1 {
		t.Errorf("RootPage has %d AbstractsPage links, want 1", n)
	}

	// YearPage(1997) -> "Paper" -> PaperPresentation(pub1).
	yp97, ok := site.NodeByName("YearPage(1997)")
	if !ok {
		t.Fatal("YearPage(1997) missing")
	}
	papers := site.OutLabel(yp97, "Paper")
	if len(papers) != 1 {
		t.Fatalf("YearPage(1997) papers = %v", papers)
	}
	if site.NodeName(papers[0].OID()) != "PaperPresentation(pub1)" {
		t.Errorf("YearPage(1997) paper = %q", site.NodeName(papers[0].OID()))
	}
	if y, _ := site.First(yp97, "Year"); y != graph.Int(1997) {
		t.Errorf("YearPage(1997) Year = %v", y)
	}

	// PaperPresentation copies all attributes of the publication.
	pp1, _ := site.NodeByName("PaperPresentation(pub1)")
	if titles := site.OutLabel(pp1, "title"); len(titles) != 1 {
		t.Errorf("pp1 title = %v", titles)
	}
	if authors := site.OutLabel(pp1, "author"); len(authors) != 2 {
		t.Errorf("pp1 authors = %v", authors)
	}
	// ... and links to its abstract page.
	abs := site.OutLabel(pp1, "Abstract")
	if len(abs) != 1 || site.NodeName(abs[0].OID()) != "AbstractPage(pub1)" {
		t.Errorf("pp1 Abstract = %v", abs)
	}

	// The shared category page links to both presentations.
	cpl, ok := site.NodeByName(`CategoryPage("Programming Languages")`)
	if !ok {
		t.Fatalf("category page missing; nodes: %v", site.Nodes())
	}
	if n := len(site.OutLabel(cpl, "Paper")); n != 2 {
		t.Errorf("Programming Languages category has %d papers, want 2", n)
	}

	// AbstractsPage links to every abstract page.
	ap, _ := site.NodeByName("AbstractsPage()")
	if n := len(site.OutLabel(ap, "Abstract")); n != 2 {
		t.Errorf("AbstractsPage has %d Abstract links, want 2", n)
	}
}

func TestEvalSkolemDeterminism(t *testing.T) {
	g := fig2Graph(t)
	q := MustParse(fig3)
	r1 := mustEval(t, q, g, nil)
	r2 := mustEval(t, q, g, nil)
	if r1.Output.DumpString() != r2.Output.DumpString() {
		t.Error("evaluation is not deterministic")
	}
	if r1.NewNodes == 0 || r1.Bindings == 0 {
		t.Errorf("result stats empty: %+v", r1)
	}
}

// TestEvalTextOnly runs the paper's TextOnly transformation: copy the
// part of the graph reachable from the root, dropping image targets.
func TestEvalTextOnly(t *testing.T) {
	g := graph.New("site")
	root := g.NewNode("root")
	art := g.NewNode("article")
	g.AddToCollection("Root", graph.NodeValue(root))
	g.AddEdge(root, "story", graph.NodeValue(art))
	g.AddEdge(art, "text", graph.Str("body"))
	g.AddEdge(art, "photo", graph.File("p.gif", graph.FileImage))
	q := MustParse(`
WHERE Root(p), p -> * -> q, q -> l -> q2, not(isImageFile(q2))
CREATE New(p), New(q), New(q2)
LINK New(q) -> l -> New(q2)
COLLECT TextOnlyRoot(New(p))
OUTPUT TextOnly`)
	res := mustEval(t, q, g, nil)
	out := res.Output
	if len(out.Collection("TextOnlyRoot")) != 1 {
		t.Fatalf("TextOnlyRoot = %v", out.Collection("TextOnlyRoot"))
	}
	nr, _ := out.NodeByName("New(root)")
	na := out.OutLabel(nr, "story")
	if len(na) != 1 {
		t.Fatalf("copied root edges = %v", out.Out(nr))
	}
	// The article copy keeps text but not the image.
	if txt := out.OutLabel(na[0].OID(), "text"); len(txt) != 1 {
		t.Errorf("text edge missing: %v", out.Out(na[0].OID()))
	}
	if img := out.OutLabel(na[0].OID(), "photo"); len(img) != 0 {
		t.Errorf("image edge should be dropped: %v", img)
	}
}

// TestEvalComplement exercises the active-domain semantics with the
// paper's complement-graph query.
func TestEvalComplement(t *testing.T) {
	g := graph.New("g")
	a, b := g.NewNode("a"), g.NewNode("b")
	g.AddEdge(a, "x", graph.NodeValue(b))
	q := MustParse(`
WHERE not(p -> l -> q)
CREATE F(p), F(q)
LINK F(p) -> l -> F(q)`)
	res := mustEval(t, q, g, nil)
	out := res.Output
	// Active domain: nodes {a,b}, labels {x}. Complement of {(a,x,b)}
	// has 3 edges.
	if out.NumEdges() != 3 {
		t.Fatalf("complement has %d edges, want 3:\n%s", out.NumEdges(), out.DumpString())
	}
	fa, _ := out.NodeByName("F(a)")
	fb, _ := out.NodeByName("F(b)")
	if vs := out.OutLabel(fa, "x"); len(vs) != 1 || vs[0] != graph.NodeValue(fa) {
		t.Errorf("F(a) -x-> = %v, want self only", vs)
	}
	if vs := out.OutLabel(fb, "x"); len(vs) != 2 {
		t.Errorf("F(b) -x-> = %v, want both", vs)
	}
}

func TestEvalInSetAndArcVariableCarryOver(t *testing.T) {
	// Arc variables carry irregular labels into the site graph.
	g := graph.New("g")
	p := g.NewNode("p")
	g.AddToCollection("Pubs", graph.NodeValue(p))
	g.AddEdge(p, "Paper", graph.Str("t1"))
	g.AddEdge(p, "TechReport", graph.Str("t2"))
	g.AddEdge(p, "Secret", graph.Str("t3"))
	q := MustParse(`
WHERE Pubs(x), x -> l -> v, l in {"Paper", "TechReport"}
CREATE Page(x)
LINK Page(x) -> l -> v`)
	res := mustEval(t, q, g, nil)
	pg, _ := res.Output.NodeByName("Page(p)")
	out := res.Output.Out(pg)
	if len(out) != 2 {
		t.Fatalf("copied edges = %v", out)
	}
	for _, e := range out {
		if e.Label != "Paper" && e.Label != "TechReport" {
			t.Errorf("unexpected label %q", e.Label)
		}
	}
}

func TestEvalComparisonsFilterAndBind(t *testing.T) {
	g := fig2Graph(t)
	q := MustParse(`
WHERE Publications(x), x -> "year" -> y, y >= 1998
COLLECT Recent(x)`)
	res := mustEval(t, q, g, nil)
	recent := res.Output.Collection("Recent")
	if len(recent) != 1 {
		t.Fatalf("Recent = %v", recent)
	}
	if g.NodeName(recent[0].OID()) != "pub2" {
		t.Errorf("Recent member = %q", g.NodeName(recent[0].OID()))
	}
	// Equality binding: z = x propagates the binding.
	q2 := MustParse(`WHERE Publications(x), z = x COLLECT Copy(z)`)
	res2 := mustEval(t, q2, g, nil)
	if len(res2.Output.Collection("Copy")) != 2 {
		t.Errorf("Copy = %v", res2.Output.Collection("Copy"))
	}
}

func TestEvalIntoExistingOutput(t *testing.T) {
	// The paper's extension: multiple queries build parts of the same
	// site graph, and Skolem identities are stable across them.
	g := fig2Graph(t)
	site := g.NewSibling("Site")
	q1 := MustParse(`WHERE Publications(x) CREATE Page(x) COLLECT Pages(Page(x))`)
	q2 := MustParse(`
CREATE Nav()
WHERE Publications(x)
CREATE Page(x)
LINK Nav() -> "entry" -> Page(x)`)
	mustEval(t, q1, g, &Options{Output: site})
	mustEval(t, q2, g, &Options{Output: site})
	if len(site.Collection("Pages")) != 2 {
		t.Fatalf("Pages = %v", site.Collection("Pages"))
	}
	nav, _ := site.NodeByName("Nav()")
	entries := site.OutLabel(nav, "entry")
	if len(entries) != 2 {
		t.Fatalf("entries = %v", entries)
	}
	// Q2's Page(x) must be the same nodes Q1 created.
	for _, e := range entries {
		if !site.InCollection("Pages", e) {
			t.Errorf("entry %v is not the Q1 page", e)
		}
	}
}

func TestEvalSharedOIDsWithInput(t *testing.T) {
	// Site-graph nodes can link to data-graph objects; the graphs
	// share an OID space.
	g := fig2Graph(t)
	q := MustParse(`WHERE Publications(x) CREATE P(x) LINK P(x) -> "orig" -> x`)
	res := mustEval(t, q, g, nil)
	p1, _ := res.Output.NodeByName("P(pub1)")
	orig, _ := res.Output.First(p1, "orig")
	if g.NodeName(orig.OID()) != "pub1" {
		t.Errorf("orig = %v", orig)
	}
}

func TestEvalUnknownCollectionOrPredicate(t *testing.T) {
	g := graph.New("g")
	q := MustParse(`WHERE NoSuch(x) COLLECT C(x)`)
	_, err := Eval(q, g, nil)
	if err == nil || !strings.Contains(err.Error(), "neither a collection") {
		t.Errorf("err = %v", err)
	}
}

func TestEvalCustomPredicates(t *testing.T) {
	g := fig2Graph(t)
	reg := NewRegistry()
	reg.RegisterObject("isLongTitle", func(v graph.Value) bool {
		s, ok := v.AsString()
		return ok && len(s) > 25
	})
	reg.RegisterMulti("sameYear", func(vs []graph.Value) bool {
		return len(vs) == 2 && graph.Eq(vs[0], vs[1])
	})
	q := MustParse(`
WHERE Publications(x), x -> "title" -> t, isLongTitle(t),
      x -> "year" -> y, sameYear(y, y)
COLLECT Long(x)`)
	res := mustEval(t, q, g, &Options{Registry: reg})
	if len(res.Output.Collection("Long")) != 1 {
		t.Errorf("Long = %v", res.Output.Collection("Long"))
	}
}

func TestEvalMaxBindingsGuard(t *testing.T) {
	g := graph.New("g")
	for i := 0; i < 20; i++ {
		n := g.NewNode("")
		g.AddToCollection("C", graph.NodeValue(n))
	}
	q := MustParse(`WHERE C(a), C(b), C(c) COLLECT Out(a)`)
	_, err := Eval(q, g, &Options{MaxBindings: 100})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v", err)
	}
}

func TestEvalEmptyWhereRunsOnce(t *testing.T) {
	g := graph.New("g")
	q := MustParse(`CREATE Root() COLLECT Roots(Root())`)
	res := mustEval(t, q, g, nil)
	if res.Bindings != 1 {
		t.Errorf("bindings = %d, want 1", res.Bindings)
	}
	if len(res.Output.Collection("Roots")) != 1 {
		t.Errorf("Roots = %v", res.Output.Collection("Roots"))
	}
}

func TestEvalNestedConjunction(t *testing.T) {
	// A child block with zero matches must not affect its parent or
	// siblings.
	g := fig2Graph(t)
	q := MustParse(`
WHERE Publications(x)
CREATE Page(x)
{ WHERE x -> "nosuchattr" -> v CREATE Extra(v) LINK Page(x) -> "extra" -> Extra(v) }
{ WHERE x -> "year" -> y CREATE Y(y) LINK Page(x) -> "year" -> Y(y) }
`)
	res := mustEval(t, q, g, nil)
	out := res.Output
	p1, ok := out.NodeByName("Page(pub1)")
	if !ok {
		t.Fatal("Page(pub1) missing")
	}
	if len(out.OutLabel(p1, "extra")) != 0 {
		t.Error("empty child produced edges")
	}
	if len(out.OutLabel(p1, "year")) != 1 {
		t.Error("sibling child should still run")
	}
}

func TestEvalEdgeToBoundAtom(t *testing.T) {
	// Reverse lookup with a bound atomic target scans edges.
	g := fig2Graph(t)
	q := MustParse(`WHERE x -> "year" -> 1997 COLLECT From97(x)`)
	res := mustEval(t, q, g, nil)
	members := res.Output.Collection("From97")
	if len(members) != 1 || g.NodeName(members[0].OID()) != "pub1" {
		t.Errorf("From97 = %v", members)
	}
}

func TestEvalEdgeToBoundNode(t *testing.T) {
	g := graph.New("g")
	a, b := g.NewNode("a"), g.NewNode("b")
	c := g.NewNode("c")
	g.AddEdge(a, "to", graph.NodeValue(c))
	g.AddEdge(b, "to", graph.NodeValue(c))
	g.AddToCollection("Targets", graph.NodeValue(c))
	q := MustParse(`WHERE Targets(y), x -> "to" -> y COLLECT Sources(x)`)
	res := mustEval(t, q, g, nil)
	if len(res.Output.Collection("Sources")) != 2 {
		t.Errorf("Sources = %v", res.Output.Collection("Sources"))
	}
}

func TestEvalPathToBoundTarget(t *testing.T) {
	g, n := chainGraph()
	g.AddToCollection("Start", graph.NodeValue(n[0]))
	g.AddToCollection("End", graph.NodeValue(n[3]))
	q := MustParse(`WHERE Start(s), End(e), s -> * -> e COLLECT Connected(s)`)
	res := mustEval(t, q, g, nil)
	if len(res.Output.Collection("Connected")) != 1 {
		t.Errorf("Connected = %v", res.Output.Collection("Connected"))
	}
}

func TestEvalResultIsSetSemantics(t *testing.T) {
	// Two paths to the same binding must not duplicate constructions.
	g := graph.New("g")
	a := g.NewNode("a")
	b := g.NewNode("b")
	c := g.NewNode("c")
	g.AddToCollection("Root", graph.NodeValue(a))
	g.AddEdge(a, "l", graph.NodeValue(b))
	g.AddEdge(a, "r", graph.NodeValue(b))
	g.AddEdge(b, "t", graph.NodeValue(c))
	q := MustParse(`WHERE Root(r), r -> * -> q COLLECT Reach(q)`)
	res := mustEval(t, q, g, nil)
	if got := len(res.Output.Collection("Reach")); got != 3 {
		t.Errorf("Reach has %d members, want 3 (set semantics)", got)
	}
}

// TestEvalIntAndFloatBindingsDiffer: Int(5) and Float(5) print alike
// but are different values, so they make two binding rows and two
// collection members.
func TestEvalIntAndFloatBindingsDiffer(t *testing.T) {
	g := graph.New("g")
	x := g.NewNode("x1")
	g.AddToCollection("C", graph.NodeValue(x))
	g.AddEdge(x, "v", graph.Int(5))
	g.AddEdge(x, "v", graph.Float(5))
	q := MustParse(`WHERE C(x), x -> "v" -> v COLLECT Vals(v)`)
	res := mustEval(t, q, g, nil)
	if res.Bindings != 2 {
		t.Errorf("Bindings = %d, want 2", res.Bindings)
	}
	if got := res.Output.Collection("Vals"); len(got) != 2 {
		t.Errorf("Vals = %v, want Int(5) and Float(5)", got)
	}
}

// TestEvalBindingsSeedOnlyVariable: a seed row's variables that no
// condition names pass through unchanged into every row the seed
// extends, as the optimizer's one-condition-at-a-time seeds need.
func TestEvalBindingsSeedOnlyVariable(t *testing.T) {
	g := fig2Graph(t)
	conds := MustParse(`WHERE Publications(x), x -> "year" -> y COLLECT C(x)`).Root.Where
	seed := []Binding{{"z": graph.Int(7)}, {"z": graph.Str("q"), "w": graph.URL("u")}}
	rows, err := EvalBindings(g, nil, conds, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %v, want 2 publications x 2 seeds", rows)
	}
	for _, r := range rows {
		want := []string{"x", "y", "z"}
		if r["z"] == graph.Str("q") {
			want = []string{"w", "x", "y", "z"}
			if r["w"] != graph.URL("u") {
				t.Errorf("row %v: w = %v, want url(u)", r, r["w"])
			}
		} else if r["z"] != graph.Int(7) {
			t.Errorf("row %v: z = %v, want 7 or \"q\"", r, r["z"])
		}
		if got := slices.Sorted(maps.Keys(r)); !slices.Equal(got, want) {
			t.Errorf("row %v binds %v, want %v", r, got, want)
		}
	}
}

// TestEvalBindingsFilterReturnsSeeds: a conjunction that binds no new
// variable returns the seed rows it keeps, in seed order, as the seeds'
// own maps; one that binds a variable returns new maps.
func TestEvalBindingsFilterReturnsSeeds(t *testing.T) {
	g := fig2Graph(t)
	seed := []Binding{{"y": graph.Int(1997)}, {"y": graph.Int(1995)}, {"y": graph.Int(1998)}, {"y": graph.Int(1996)}}
	same := func(a, b Binding) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}

	rows, err := EvalBindings(g, nil, MustParse(`WHERE y > 1995, y < 1998 COLLECT C(y)`).Root.Where, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !same(rows[0], seed[0]) || !same(rows[1], seed[3]) {
		t.Errorf("rows = %v, want seeds 0 and 3 themselves", rows)
	}

	rows, err = EvalBindings(g, nil, MustParse(`WHERE y > 1995, z = y COLLECT C(y)`).Root.Where, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := []Binding{{"y": graph.Int(1997), "z": graph.Int(1997)}, {"y": graph.Int(1998), "z": graph.Int(1998)}, {"y": graph.Int(1996), "z": graph.Int(1996)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	for _, r := range rows {
		for _, s := range seed {
			if same(r, s) {
				t.Errorf("row %v is a seed's map, though the conjunction binds z", r)
			}
		}
	}
}

// TestEvalConstructionOnlyVariable: a query built without the parser
// can name a variable in a construction clause that no where clause
// binds. It has no slot and reads as unbound, so evaluation reports it
// unbound.
func TestEvalConstructionOnlyVariable(t *testing.T) {
	g := graph.New("g")
	g.AddToCollection("C", graph.Str("a"))
	for _, c := range []struct {
		name, want string
		edit       func(b *Block)
	}{
		{"create", `G(z): variable "z" unbound`, func(b *Block) {
			b.Creates = append(b.Creates, SkolemTerm{Func: "G", Args: []Term{VarTerm("z")}})
		}},
		{"link target", `variable "z" unbound in construction clause`, func(b *Block) { b.Links[0].To = LinkTarget{Term: &Term{Var: "z"}} }},
		{"arc variable", `arc variable "l" unbound`, func(b *Block) { b.Links[0].Label = LabelTerm{Var: "l"} }},
		{"aggregate", `COUNT(z): variable "z" unbound`, func(b *Block) { b.Links[0].To = LinkTarget{Agg: &AggTerm{Op: AggCount, Var: "z"}} }},
		{"collect", `variable "z" unbound in construction clause`, func(b *Block) { b.Collects[0].Target = LinkTarget{Term: &Term{Var: "z"}} }},
	} {
		q := MustParse(`WHERE C(x) CREATE F(x) LINK F(x) -> "n" -> x COLLECT Out(F(x))`)
		c.edit(q.Root)
		if _, err := Eval(q, g, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestEvalNegationBindsNothing: the anti-join evaluates its inner
// condition over a copy of each row and of the bound set, so a
// variable bound only under not(...) is absent from the rows it keeps
// and stays unbound for the conditions after it. In a query such a
// variable is ranged over the active domain before the anti-join runs,
// so it is bound there by the domain, never by the negated condition.
func TestEvalNegationBindsNothing(t *testing.T) {
	g := graph.New("g")
	a, b := g.NewNode("a"), g.NewNode("b")
	g.AddEdge(a, "x", graph.NodeValue(b))
	g.AddToCollection("C", graph.NodeValue(a))
	g.AddToCollection("C", graph.NodeValue(b))

	q := MustParse(`WHERE C(x), not(x -> "x" -> y) COLLECT O(x)`)
	ev := &evaluator{in: g, reg: NewRegistry(), slots: newSlots(q.Root.Vars())}
	x, y := ev.slots.of("x"), ev.slots.of("y")
	rows := []env{ev.slots.row().extend(x, graph.NodeValue(a)), ev.slots.row().extend(x, graph.NodeValue(b))}
	bound := make([]bool, 2)
	bound[x] = true
	kept, err := ev.expand(q.Root.Where[1], rows, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0][x] != graph.NodeValue(b) || !kept[0][y].IsZero() {
		t.Errorf("kept %v, want only x = b with y unbound", kept)
	}
	if bound[y] {
		t.Error("the anti-join marked y bound")
	}

	got, err := EvalBindings(g, nil, q.Root.Where, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Binding{
		{"x": graph.NodeValue(a), "y": graph.NodeValue(a)},
		{"x": graph.NodeValue(b), "y": graph.NodeValue(a)},
		{"x": graph.NodeValue(b), "y": graph.NodeValue(b)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EvalBindings = %v, want %v", got, want)
	}
}

// TestEvalManyVariables: a where clause that binds more variables than
// a machine word has bits evaluates like any other. Two chains of 70
// nodes each bind x0..x69 once.
func TestEvalManyVariables(t *testing.T) {
	const n = 70
	g := graph.New("g")
	var conds []string
	for c := 0; c < 2; c++ {
		prev := g.NewNode(fmt.Sprintf("c%d_0", c))
		g.AddToCollection("Start", graph.NodeValue(prev))
		for i := 1; i < n; i++ {
			next := g.NewNode(fmt.Sprintf("c%d_%d", c, i))
			g.AddEdge(prev, "next", graph.NodeValue(next))
			prev = next
		}
	}
	conds = append(conds, "Start(x0)")
	for i := 1; i < n; i++ {
		conds = append(conds, fmt.Sprintf(`x%d -> "next" -> x%d`, i-1, i))
	}
	q := MustParse("WHERE " + strings.Join(conds, ", ") + fmt.Sprintf(` CREATE P(x0, x%d) COLLECT Ends(P(x0, x%d))`, n-1, n-1))
	res := mustEval(t, q, g, nil)
	if res.Bindings != 2 {
		t.Errorf("Bindings = %d, want 2", res.Bindings)
	}
	for c := 0; c < 2; c++ {
		if _, ok := res.Output.NodeByName(fmt.Sprintf("P(c%d_0,c%d_%d)", c, c, n-1)); !ok {
			t.Errorf("P(c%d_0,c%d_%d) missing:\n%s", c, c, n-1, res.Output.DumpString())
		}
	}
	rows, err := EvalBindings(g, nil, q.Root.Where, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("EvalBindings: %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		c := g.NodeName(r["x0"].OID())[:2]
		for i := 0; i < n; i++ {
			if v := r[fmt.Sprintf("x%d", i)]; !v.IsNode() || g.NodeName(v.OID()) != fmt.Sprintf("%s_%d", c, i) {
				t.Errorf("row from %s: x%d = %v", c, i, v)
			}
		}
	}
}

// TestEvalZeroCollectionMember: the zero Value never becomes a
// collection member, so it never reaches a row, where it would read as
// an unbound slot.
func TestEvalZeroCollectionMember(t *testing.T) {
	g := graph.New("g")
	g.AddToCollection("C", graph.Value{})
	g.AddToCollection("C", graph.Str("a"))
	q := MustParse(`WHERE C(x) CREATE P(x) COLLECT Out(P(x))`)
	res := mustEval(t, q, g, nil)
	if res.NewNodes != 1 || len(res.Output.Collection("Out")) != 1 {
		t.Errorf("NewNodes = %d, Out = %v; want one P node", res.NewNodes, res.Output.Collection("Out"))
	}
	rows, err := EvalBindings(g, nil, q.Root.Where, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Binding{{"x": graph.Str("a")}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("EvalBindings = %v, want %v", rows, want)
	}
}
