package incremental

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/template"
	"strudel/internal/workload"
)

// renderReference renders ref the way a complete materialization
// would: the transient graph holds every page reachable from ref with
// all of its edges, followed to any depth. A render that loads only
// what the templates read must produce the same bytes.
func renderReference(r *Renderer, ref PageRef) (string, error) {
	g := graph.New("reference")
	seen := map[string]graph.OID{}
	var load func(ref PageRef) (graph.OID, error)
	load = func(ref PageRef) (graph.OID, error) {
		key := ref.keyWith(r.Dec.input)
		if oid, ok := seen[key]; ok {
			return oid, nil
		}
		oid := g.NewNode(key)
		seen[key] = oid
		pd, err := r.Dec.Page(ref)
		if err != nil {
			return 0, err
		}
		for _, e := range pd.Edges {
			to := e.Value
			switch {
			case e.Page != nil:
				sub, err := load(*e.Page)
				if err != nil {
					return 0, err
				}
				to = graph.NodeValue(sub)
			case e.Value.IsNode():
				to = graph.NodeValue(g.NewNode(r.Dec.input.NodeName(e.Value.OID())))
			}
			if err := g.AddEdge(oid, e.Label, to); err != nil {
				return 0, err
			}
		}
		return oid, nil
	}
	oid, err := load(ref)
	if err != nil {
		return "", err
	}
	return r.render(g, oid)
}

// discoverAll computes every page reachable from the root collection
// and returns their refs sorted by key.
func discoverAll(t *testing.T, d *Decomposition, rootCollection string) []PageRef {
	t.Helper()
	if _, err := d.MaterializeAll(rootCollection); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	refs := make([]PageRef, 0, len(d.known))
	for _, ref := range d.known {
		refs = append(refs, ref)
	}
	d.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].key < refs[j].key })
	return refs
}

// readThroughLinksSpec is the CNN site under templates that read
// across links: dotted paths through link targets, SFOR variables
// (one shadowing an attribute), KEY through a variable, LINK= as an
// expression, and SIF on a target's attributes.
func readThroughLinksSpec() *workload.SiteSpec {
	spec := workload.ArticleSpec(false)
	spec.Name = "reads-through-links"
	spec.Templates = map[string]*template.Template{
		"FrontPage": template.MustParse("FrontPage", `<h1>News</h1>
<SFOR s SectionPage ORDER=ascend KEY=Section>
<h2><SFMT s.Section> (<SFMT s.StoryCount>)</h2>
<SFMT_UL s.Story ORDER=descend KEY=date LINK=s.Section>
<SIF s.Story.image>pictured</SIF>
</SFOR>`),
		"SectionPage": template.MustParse("SectionPage", `<h1><SFMT @Section></h1>
<SFOR a Story ORDER=ascend KEY=title>
<li><SFMT a LINK=a.title> by <SFMT a.byline>
<SIF a.image != NULL AND NOT a.date < "1997-06-01"><SFMT a.image></SIF>
<SIF a.Related.title OR a.Related.Related.byline = NULL>
related: <SFMT_UL a.Related ORDER=ascend KEY=a.date LINK=a.byline>
</SIF>
</SFOR>`),
		"ArticlePage": template.MustParse("ArticlePage", `<h1><SFMT title></h1>
<SIF Related.Related.title = title>cycle</SIF>
<SFOR title Related ORDER=ascend KEY=date>
<SFMT title LINK=title.title>: <SFMT title.Related.byline DELIM=", ">
<SFMT_OL title.Related ORDER=descend KEY=title>
</SFOR>`),
	}
	return spec
}

// embedOnlySpec is the Fig. 3 homepage with year pages that list
// their papers without EMBED: the presentations still embed, because
// their class is embed-only.
func embedOnlySpec() *workload.SiteSpec {
	spec := workload.BibliographySpec()
	spec.Name = "homepage-embed-only"
	spec.Templates["YearPage"] = template.MustParse("YearPage", `<h1><SFMT Year></h1>
<SFMT_UL Paper ORDER=ascend KEY=title>`)
	return spec
}

// TestProjectedRenderMatchesReference: on every page the decomposition
// discovers, the renderer, which loads only what the templates read,
// produces the bytes of a render over everything reachable. Covers a
// link site, EMBED plus embed-only presentations (the Fig. 3
// homepage, and a variant that embeds by class alone), both CNN
// variants, and templates that read across links.
// The CNN site at seed 1 holds a page (SectionPage(politics)) whose
// stories an old depth-bounded walk reached past its bound and left
// without titles, so the page sorted them wrongly.
func TestProjectedRenderMatchesReference(t *testing.T) {
	bib := func(seed int64) *graph.Graph { return workload.Bibliography(120, seed) }
	articles := func(seed int64) *graph.Graph { return workload.Articles(300, seed) }
	sites := []struct {
		spec *workload.SiteSpec
		data func(seed int64) *graph.Graph
	}{
		{workload.PartitionedSpec(), bib},
		{workload.BibliographySpec(), bib},
		{embedOnlySpec(), bib},
		{workload.ArticleSpec(false), articles},
		{workload.ArticleSpec(true), articles},
		{readThroughLinksSpec(), articles},
	}
	for _, site := range sites {
		for _, seed := range []int64{1, 7, 424242} {
			t.Run(fmt.Sprintf("%s/seed%d", site.spec.Name, seed), func(t *testing.T) {
				data := site.data(seed)
				q := struql.MustParse(site.spec.Query)
				refs := discoverAll(t, Decompose(q, data, nil), site.spec.RootCollection)
				if len(refs) < 10 {
					t.Fatalf("discovered only %d pages", len(refs))
				}
				full := &Renderer{Dec: Decompose(q, data, nil), Templates: site.spec.Templates, EmbedOnly: site.spec.EmbedOnly}
				proj := &Renderer{Dec: Decompose(q, data, nil), Templates: site.spec.Templates, EmbedOnly: site.spec.EmbedOnly}
				for _, ref := range refs {
					want, werr := renderReference(full, ref)
					got, gerr := proj.RenderPage(ref)
					if fmt.Sprint(werr) != fmt.Sprint(gerr) {
						t.Fatalf("%s: error %v, reference error %v", ref.key, gerr, werr)
					}
					if got != want {
						t.Fatalf("%s differs from the reference render:\n got: %q\nwant: %q", ref.key, got, want)
					}
				}
			})
		}
	}
}

// TestProjectedRenderEmbedCycle: pages that embed each other in a
// cycle still fail with the embedding-depth error, as the reference
// render does, and loading them terminates.
func TestProjectedRenderEmbedCycle(t *testing.T) {
	res, err := datadef.Parse("G", `
collection Items { }
object a in Items { title "A" next b }
object b in Items { title "B" next c }
object c in Items { title "C" next a }
object d in Items { title "D" }
`)
	if err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(`
INPUT G
WHERE Items(x), x -> "title" -> v
CREATE P(x)
LINK P(x) -> "title" -> v
COLLECT Roots(P(x))
{
  WHERE x -> "next" -> y
  LINK P(x) -> "Next" -> P(y)
}`)
	tpls := map[string]*template.Template{
		"P": template.MustParse("P", `<b><SFMT title></b><SFMT Next EMBED>`),
	}
	full := &Renderer{Dec: Decompose(q, res.Graph, nil), Templates: tpls, MaxDepth: 3}
	proj := &Renderer{Dec: Decompose(q, res.Graph, nil), Templates: tpls, MaxDepth: 3}
	refs := discoverAll(t, Decompose(q, res.Graph, nil), "Roots")
	for _, ref := range refs {
		want, werr := renderReference(full, ref)
		got, gerr := proj.RenderPage(ref)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || got != want {
			t.Fatalf("%s: got %q, %v; reference %q, %v", ref.key, got, gerr, want, werr)
		}
		cyclic := ref.key != "P(d)"
		if cyclic && (gerr == nil || !strings.Contains(gerr.Error(), "embedding depth exceeds 3")) {
			t.Errorf("%s: error %v, want the embedding-depth error", ref.key, gerr)
		}
		if !cyclic && (gerr != nil || got != "<b>D</b>") {
			t.Errorf("%s = %q, %v", ref.key, got, gerr)
		}
	}
}

// TestProjectedRenderComputesOnlyReadPages: a link whose target the
// template reads nothing of costs no page computation, so the link
// site's root computes itself and its group pages (whose Year its KEY
// reads), not the item pages behind them.
func TestProjectedRenderComputesOnlyReadPages(t *testing.T) {
	spec := workload.PartitionedSpec()
	d := Decompose(struql.MustParse(spec.Query), workload.Bibliography(200, 1), nil)
	r := &Renderer{Dec: d, Templates: spec.Templates}
	roots, err := d.Roots(spec.RootCollection)
	if err != nil || len(roots) != 1 {
		t.Fatalf("roots %v, %v", roots, err)
	}
	if _, err := r.RenderPage(roots[0]); err != nil {
		t.Fatal(err)
	}
	groups := 0
	var extra []string
	for _, key := range d.CachedKeys() {
		switch {
		case strings.HasPrefix(key, "GroupPage("):
			groups++
		case key != "HomePage()":
			extra = append(extra, key)
		}
	}
	if groups == 0 || len(extra) > 0 {
		t.Errorf("rendering the root computed %d group pages and %d others (%.3q)", groups, len(extra), extra[:min(3, len(extra))])
	}
	// The items stay discoverable: the group pages named them.
	if _, ok := d.Resolve("ItemPage(pub0)"); !ok {
		t.Error("ItemPage(pub0) does not resolve after the root render")
	}
}
