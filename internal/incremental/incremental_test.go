package incremental

import (
	"fmt"
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/template"
)

const bibData = `
collection Publications { }
object pub1 in Publications { title "Alpha" year 1997 category "X" }
object pub2 in Publications { title "Beta" year 1998 category "X" }
object pub3 in Publications { title "Gamma" year 1998 category "Y" }
`

const siteQuery = `
INPUT BIBTEX
CREATE RootPage()
COLLECT Roots(RootPage())
WHERE Publications(x), x -> l -> v
CREATE PaperPage(x)
LINK PaperPage(x) -> l -> v
{
  WHERE l = "year"
  CREATE YearPage(v)
  LINK YearPage(v) -> "Year" -> v,
       YearPage(v) -> "Paper" -> PaperPage(x),
       RootPage() -> "YearPage" -> YearPage(v)
}
OUTPUT Site
`

func setup(t *testing.T) (*graph.Graph, *Decomposition) {
	t.Helper()
	res, err := datadef.Parse("BIBTEX", bibData)
	if err != nil {
		t.Fatal(err)
	}
	d := Decompose(struql.MustParse(siteQuery), res.Graph, nil)
	return res.Graph, d
}

func TestDecomposeFunctions(t *testing.T) {
	_, d := setup(t)
	fns := d.Functions()
	want := []string{"PaperPage", "RootPage", "YearPage"}
	if len(fns) != len(want) {
		t.Fatalf("functions = %v", fns)
	}
	for i := range want {
		if fns[i] != want[i] {
			t.Errorf("functions[%d] = %s, want %s", i, fns[i], want[i])
		}
	}
}

func TestRootsPrecomputed(t *testing.T) {
	_, d := setup(t)
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Key() != "RootPage()" {
		t.Fatalf("roots = %v", roots)
	}
	// The root resolves by key afterwards.
	if _, ok := d.Resolve("RootPage()"); !ok {
		t.Error("root not registered")
	}
	if _, ok := d.Resolve("Nope()"); ok {
		t.Error("unknown key resolved")
	}
}

func TestPageComputation(t *testing.T) {
	_, d := setup(t)
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	root, err := d.Page(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	// Root links to two year pages (1997, 1998).
	if len(root.Edges) != 2 {
		t.Fatalf("root edges = %v", root.Edges)
	}
	var y98 *PageRef
	for _, e := range root.Edges {
		if e.Label != "YearPage" || e.Page == nil {
			t.Errorf("unexpected root edge %+v", e)
			continue
		}
		if e.Page.Key() == "YearPage(1998)" {
			y98 = e.Page
		}
	}
	if y98 == nil {
		t.Fatal("YearPage(1998) missing")
	}
	// Click through to 1998: Year atom + two paper links.
	pd, err := d.Page(*y98)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pd.First("Year"); !ok || v != graph.Int(1998) {
		t.Errorf("Year = %v", v)
	}
	papers := 0
	for _, e := range pd.Edges {
		if e.Label == "Paper" {
			papers++
			if e.Page == nil || !strings.HasPrefix(e.Page.Key(), "PaperPage(pub") {
				t.Errorf("paper edge = %+v", e)
			}
		}
	}
	if papers != 2 {
		t.Errorf("1998 has %d papers, want 2", papers)
	}
}

func TestPageMatchesFullEvaluation(t *testing.T) {
	// The dynamic page content equals the corresponding node in the
	// fully materialized site graph.
	g, d := setup(t)
	full, err := struql.Eval(struql.MustParse(siteQuery), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub1, _ := g.NodeByName("pub1")
	ref := PageRef{Func: "PaperPage", Args: []graph.Value{graph.NodeValue(pub1)}}
	pd, err := d.Page(ref)
	if err != nil {
		t.Fatal(err)
	}
	staticNode, ok := full.Output.NodeByName("PaperPage(pub1)")
	if !ok {
		t.Fatal("static node missing")
	}
	staticEdges := full.Output.Out(staticNode)
	if len(pd.Edges) != len(staticEdges) {
		t.Errorf("dynamic %d edges vs static %d", len(pd.Edges), len(staticEdges))
	}
	for _, se := range staticEdges {
		found := false
		for _, de := range pd.Edges {
			if de.Label == se.Label && de.Page == nil && de.Value == se.To {
				found = true
			}
		}
		if !found {
			t.Errorf("dynamic page missing edge %v", se)
		}
	}
}

func TestPageCaching(t *testing.T) {
	_, d := setup(t)
	roots, _ := d.Roots("Roots")
	if _, err := d.Page(roots[0]); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if _, err := d.Page(roots[0]); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("stats = %+v -> %+v", before, after)
	}
}

func TestMaterializeAll(t *testing.T) {
	_, d := setup(t)
	n, err := d.MaterializeAll("Roots")
	if err != nil {
		t.Fatal(err)
	}
	// RootPage + 2 YearPages + 3 PaperPages.
	if n != 6 {
		t.Errorf("materialized %d pages, want 6", n)
	}
}

func TestRendererLinksAndEmbeds(t *testing.T) {
	_, d := setup(t)
	tpls := map[string]*template.Template{
		"RootPage":  template.MustParse("RootPage", `<h1>Root</h1><SFMT_UL YearPage ORDER=ascend KEY=Year>`),
		"YearPage":  template.MustParse("YearPage", `<h1><SFMT Year></h1><SFMT Paper EMBED DELIM="; ">`),
		"PaperPage": template.MustParse("PaperPage", `<i><SFMT title></i> (<SFMT year>)`),
	}
	r := &Renderer{Dec: d, Templates: tpls, EmbedOnly: map[string]bool{"PaperPage": true}}
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.RenderPage(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	// Root links to year pages, ordered.
	i97 := strings.Index(out, "YearPage%281997%29")
	i98 := strings.Index(out, "YearPage%281998%29")
	if i97 < 0 || i98 < 0 || i97 > i98 {
		t.Errorf("root render = %q", out)
	}
	// Year page embeds papers.
	ref, _ := d.Resolve("YearPage(1998)")
	out, err = r.RenderPage(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<h1>1998</h1>", "<i>Beta</i> (1998)", "<i>Gamma</i> (1998)"} {
		if !strings.Contains(out, want) {
			t.Errorf("year render missing %q: %q", want, out)
		}
	}
}

func TestRendererUntemplatedTarget(t *testing.T) {
	res, _ := datadef.Parse("G", `collection C { } object a in C { v 1 }`)
	q := struql.MustParse(`
INPUT G
WHERE C(x)
CREATE P(x)
LINK P(x) -> "orig" -> x
COLLECT Roots(P(x))`)
	d := Decompose(q, res.Graph, nil)
	r := &Renderer{Dec: d, Templates: map[string]*template.Template{
		"P": template.MustParse("P", `[<SFMT orig>]`),
	}}
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.RenderPage(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if out != "[a]" {
		t.Errorf("render = %q", out)
	}
}

func TestPageWithConstArgsAndSkolemConstants(t *testing.T) {
	res, _ := datadef.Parse("G", `collection C { } object a in C { v 1 }`)
	q := struql.MustParse(`
INPUT G
CREATE F("fixed")
WHERE C(x)
LINK F("fixed") -> "member" -> x`)
	d := Decompose(q, res.Graph, nil)
	ref := PageRef{Func: "F", Args: []graph.Value{graph.Str("fixed")}}
	pd, err := d.Page(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Edges) != 1 || pd.Edges[0].Label != "member" {
		t.Errorf("edges = %+v", pd.Edges)
	}
	// A mismatching constant arg yields an empty page.
	pd2, err := d.Page(PageRef{Func: "F", Args: []graph.Value{graph.Str("other")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd2.Edges) != 0 {
		t.Errorf("mismatched page should be empty: %+v", pd2.Edges)
	}
}

// TestQuickDynamicMatchesStatic: for random bibliographies, every page
// the full evaluator materializes is computed identically by the
// decomposed per-page queries.
func TestQuickDynamicMatchesStatic(t *testing.T) {
	q := struql.MustParse(siteQuery)
	for seed := int64(0); seed < 8; seed++ {
		g := graph.New("BIBTEX")
		g.DeclareCollection("Publications")
		rngSeed := seed
		for i := int64(0); i < 6+rngSeed; i++ {
			p := g.NewNode(fmt.Sprintf("pub%d", i))
			g.AddToCollection("Publications", graph.NodeValue(p))
			g.AddEdge(p, "title", graph.Str(fmt.Sprintf("T%d", i)))
			g.AddEdge(p, "year", graph.Int(1990+(i+rngSeed)%5))
			if i%2 == 0 {
				g.AddEdge(p, "category", graph.Str("X"))
			}
		}
		full, err := struql.Eval(q, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := Decompose(q, g, nil)
		if _, err := d.MaterializeAll("Roots"); err != nil {
			t.Fatal(err)
		}
		for _, id := range full.Output.Nodes() {
			name := full.Output.NodeName(id)
			if name == "" || !strings.Contains(name, "(") {
				continue
			}
			ref, ok := d.Resolve(name)
			if !ok {
				t.Fatalf("seed %d: %s undiscovered", seed, name)
			}
			pd, err := d.Page(ref)
			if err != nil {
				t.Fatal(err)
			}
			if len(pd.Edges) != len(full.Output.Out(id)) {
				t.Errorf("seed %d: %s has %d dynamic edges, %d static",
					seed, name, len(pd.Edges), len(full.Output.Out(id)))
			}
		}
	}
}

func TestDynamicAggregates(t *testing.T) {
	res, err := datadef.Parse("G", `
collection Publications { }
object p1 in Publications { year 1997 cites 10 }
object p2 in Publications { year 1998 cites 4 }
object p3 in Publications { year 1998 cites 6 }
`)
	if err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(`
INPUT G
WHERE Publications(x), x -> "year" -> y
CREATE YearPage(y)
LINK YearPage(y) -> "Year" -> y,
     YearPage(y) -> "papers" -> COUNT(x)
COLLECT Roots(YearPage(y))`)
	d := Decompose(q, res.Graph, nil)
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]graph.Value{}
	for _, ref := range roots {
		pd, err := d.Page(ref)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := pd.First("papers")
		if !ok {
			t.Fatalf("%s has no papers edge: %+v", ref.Key(), pd.Edges)
		}
		counts[ref.Key()] = v
	}
	if counts["YearPage(1997)"] != graph.Int(1) || counts["YearPage(1998)"] != graph.Int(2) {
		t.Errorf("counts = %v", counts)
	}
}

func TestUsePlannerDelegates(t *testing.T) {
	_, d := setup(t)
	called := 0
	d.UsePlanner(func(conds []struql.Condition, seed []struql.Binding) ([]struql.Binding, error) {
		called++
		return struql.EvalBindings(d.input, d.reg, conds, seed)
	})
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Page(roots[0]); err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Error("planner hook never invoked")
	}
}

func TestConcurrentPageComputation(t *testing.T) {
	_, d := setup(t)
	roots, err := d.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	root, err := d.Page(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	// Many goroutines click through every page concurrently (the
	// dynamic server does exactly this).
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				for _, e := range root.Edges {
					if e.Page == nil {
						continue
					}
					if _, err := d.Page(*e.Page); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
