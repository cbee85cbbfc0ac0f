package strudel_test

// Differential tests of incremental site maintenance: for every
// example site, apply a deterministic random edit script to the data,
// rebuild incrementally against the previous result, and require the
// outcome to be byte-identical to a from-scratch build over the same
// edited data — at worker counts 1, 4, and 16, with the same bytes at
// every count. Chained rounds make each delta rebuild the baseline of
// the next.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/workload"
)

const diffRounds = 3

// selectiveRounds counts rounds across the whole suite where the delta
// pipeline actually reused pages, so the suite fails if incremental
// rebuilds silently degrade to always-full.
var selectiveRounds int

// mutateBib applies a burst of random edits to a bibliography-shaped
// graph: retitles, added and dropped edges, new publications, removed
// publications. Only deterministic graph accessors are used, so the
// same seed replays the identical script on a structurally identical
// graph.
func mutateBib(t *testing.T, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < 6; k++ {
		pubs := g.Collection("Publications")
		if len(pubs) == 0 {
			break
		}
		oid := pubs[rng.Intn(len(pubs))].OID()
		switch rng.Intn(5) {
		case 0: // retitle
			if old, ok := g.First(oid, "title"); ok {
				g.RemoveEdge(oid, "title", old)
			}
			if err := g.AddEdge(oid, "title", graph.Str(fmt.Sprintf("Edited title %d", rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		case 1: // extra category
			if err := g.AddEdge(oid, "category", graph.Str(fmt.Sprintf("Topic %d", rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		case 2: // drop a random attribute edge
			out := g.Out(oid)
			if len(out) > 1 {
				e := out[rng.Intn(len(out))]
				g.RemoveEdge(oid, e.Label, e.To)
			}
		case 3: // brand-new publication
			name := fmt.Sprintf("pub_new%d", rng.Int63())
			id := g.NewNode(name)
			g.AddToCollection("Publications", graph.NodeValue(id))
			if err := g.AddEdge(id, "title", graph.Str(fmt.Sprintf("New work %d", rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
			g.AddEdge(id, "author", graph.Str("Ann Author"))
			g.AddEdge(id, "year", graph.Int(int64(1990+rng.Intn(8))))
			g.AddEdge(id, "category", graph.Str(fmt.Sprintf("Topic %d", rng.Intn(5))))
		case 4: // remove a publication outright
			if len(pubs) > 3 {
				g.RemoveNode(oid)
			}
		}
	}
}

// mutateArticles edits a CNN-shaped corpus: retitles, section moves,
// related-link churn, added and removed articles.
func mutateArticles(t *testing.T, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < 6; k++ {
		arts := g.Collection("Articles")
		if len(arts) == 0 {
			break
		}
		v := arts[rng.Intn(len(arts))]
		oid := v.OID()
		switch rng.Intn(5) {
		case 0: // retitle
			if old, ok := g.First(oid, "title"); ok {
				g.RemoveEdge(oid, "title", old)
			}
			if err := g.AddEdge(oid, "title", graph.Str(fmt.Sprintf("Breaking %d", rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		case 1: // extra section
			if err := g.AddEdge(oid, "section", graph.Str(workload.Sections[rng.Intn(len(workload.Sections))])); err != nil {
				t.Fatal(err)
			}
		case 2: // related-link churn
			other := arts[rng.Intn(len(arts))]
			if other != v {
				g.AddEdge(oid, "related", other)
			}
		case 3: // new article
			name := fmt.Sprintf("art_new%d", rng.Int63())
			id := g.NewNode(name)
			g.AddToCollection("Articles", graph.NodeValue(id))
			if err := g.AddEdge(id, "title", graph.Str(fmt.Sprintf("Story %d", rng.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
			g.AddEdge(id, "byline", graph.Str("Ann Author"))
			g.AddEdge(id, "date", graph.Str("1997-06-15"))
			g.AddEdge(id, "section", graph.Str(workload.Sections[rng.Intn(len(workload.Sections))]))
			g.AddEdge(id, "body", graph.Str(fmt.Sprintf("Body text %d.", rng.Intn(1000))))
		case 4: // remove an article
			if len(arts) > 3 {
				g.RemoveNode(oid)
			}
		}
	}
}

// comparePages requires two generated sites to agree byte for byte.
func comparePages(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if len(got.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("%s: delta rebuild has %d pages, scratch build %d", label, len(got.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		gp := got.Site.Pages[path]
		if gp == nil {
			t.Errorf("%s: page %s missing after delta rebuild", label, path)
			continue
		}
		if gp.HTML != wp.HTML {
			t.Errorf("%s: page %s differs between delta rebuild and scratch build", label, path)
		}
	}
	if g, w := got.SiteGraph.DumpString(), want.SiteGraph.DumpString(); g != w {
		t.Errorf("%s: site-graph dump differs between delta rebuild and scratch build", label)
	}
}

// siteDigest hashes a site's pages so runs at different worker counts
// can be compared byte for byte.
func siteDigest(res *core.Result) string {
	paths := make([]string, 0, len(res.Site.Pages))
	for p := range res.Site.Pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%s\x00", p, res.Site.Pages[p].HTML)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// copyOf copies a data graph a build has read, keeping its OIDs and
// names: that graph is never edited, the copy takes the edits.
func copyOf(g *graph.Graph) *graph.Graph {
	c := g.NewSibling(g.Name())
	c.Merge(g)
	return c
}

// runGraphDifferential drives chained edit-and-rebuild rounds for a
// site whose data is an explicit graph: mkBuilder configures queries
// and templates, fresh regenerates the pristine data (same bytes every
// call), mutate applies one seeded edit burst to a copy of the last
// round's data. Returns the digest of the final site for cross-worker
// comparison.
func runGraphDifferential(t *testing.T, mkBuilder func(t *testing.T) *core.Builder,
	fresh func() *graph.Graph, mutate func(*testing.T, *graph.Graph, *rand.Rand),
	workers int, seed0 int64) string {
	t.Helper()
	cur := fresh()
	b := mkBuilder(t)
	b.SetWorkers(workers)
	b.SetDataGraph(cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	for round := 0; round < diffRounds; round++ {
		seed := seed0 + int64(round)
		cur = copyOf(cur)
		mutate(t, cur, rand.New(rand.NewSource(seed)))
		b.SetDataGraph(cur)
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Incremental == nil {
			t.Fatalf("round %d: rebuild reported no incremental info", round)
		}
		if st := res.Incremental.Site; st != nil && st.Reused > 0 && !st.Full {
			selectiveRounds++
		}

		// From-scratch reference: pristine data with every edit round so
		// far replayed, built by a fresh builder.
		sdata := fresh()
		for r := 0; r <= round; r++ {
			mutate(t, sdata, rand.New(rand.NewSource(seed0+int64(r))))
		}
		sb := mkBuilder(t)
		sb.SetWorkers(workers)
		sb.SetDataGraph(sdata)
		want, err := sb.Build()
		if err != nil {
			t.Fatalf("round %d scratch build: %v", round, err)
		}
		comparePages(t, fmt.Sprintf("round %d", round), res, want)
		prev = res
		digest = siteDigest(res)
	}
	return digest
}

func specBuilder(spec *workload.SiteSpec) func(t *testing.T) *core.Builder {
	return func(t *testing.T) *core.Builder {
		t.Helper()
		b := core.NewBuilder(spec.Name)
		if err := b.AddQuery(spec.Query); err != nil {
			t.Fatal(err)
		}
		b.AddTemplates(spec.Templates)
		for fn := range spec.EmbedOnly {
			b.SetEmbedOnly(fn)
		}
		b.SetIndex(spec.Index)
		b.SetRootCollection(spec.RootCollection)
		return b
	}
}

// Homepage site: the Sec. 5.1 mff example — a person object plus a
// publication list, defined by an inline query.
const homepageDiffQuery = `INPUT BIBTEX
CREATE HomePage(), PubsPage()
LINK HomePage() -> "Publications" -> PubsPage()
COLLECT Roots(HomePage())
WHERE People(p), p -> a -> v
LINK HomePage() -> a -> v
WHERE Publications(x), x -> l -> w
CREATE Pub(x)
LINK Pub(x) -> l -> w,
     PubsPage() -> "Paper" -> Pub(x)
OUTPUT Homepage`

func homepageDiffBuilder(t *testing.T) *core.Builder {
	t.Helper()
	b := core.NewBuilder("homepage-diff")
	if err := b.AddQuery(homepageDiffQuery); err != nil {
		t.Fatal(err)
	}
	for key, src := range map[string]string{
		"HomePage": `<html><body><h1><SFMT name></h1>
<h3>Activities</h3><SFMT_UL activity>
<p><SFMT Publications LINK="Publications"></p>
</body></html>`,
		"PubsPage": `<html><body><h1>Publications</h1><SFMT_UL Paper EMBED></body></html>`,
		"Pub":      `<SFMT title>. <SFMT author DELIM=", ">, <SFMT year>.`,
	} {
		if err := b.AddTemplate(key, src); err != nil {
			t.Fatal(err)
		}
	}
	b.SetEmbedOnly("Pub")
	b.SetIndex("HomePage")
	b.SetRootCollection("Roots")
	return b
}

func homepageDiffData() *graph.Graph {
	g := workload.Bibliography(12, 5)
	mff := g.NewNode("mff")
	g.AddToCollection("People", graph.NodeValue(mff))
	g.AddEdge(mff, "name", graph.Str("Mary Fernandez"))
	g.AddEdge(mff, "activity", graph.Str("PC member, SIGMOD 1999"))
	g.AddEdge(mff, "activity", graph.Str("Editor, SIGMOD Record"))
	return g
}

func mutateHomepage(t *testing.T, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	mutateBib(t, g, rng)
	if mff, ok := g.NodeByName("mff"); ok && rng.Intn(2) == 0 {
		if err := g.AddEdge(mff, "activity", graph.Str(fmt.Sprintf("Talk %d", rng.Intn(1000)))); err != nil {
			t.Fatal(err)
		}
	}
}

// Textonly site: the paper's Sec. 3 transformation as a core site —
// its wildcard path and negation force the conservative (full) side of
// the impact analysis, so the differential property is exercised there
// too.
const textonlyDiffQuery = `INPUT Site
WHERE Root(p), p -> * -> q, q -> l -> q2, not(isImageFile(q2))
CREATE New(p), New(q), New(q2)
LINK New(q) -> l -> New(q2)
COLLECT TextOnlyRoot(New(p))
OUTPUT TextOnly`

func textonlyDiffBuilder(t *testing.T) *core.Builder {
	t.Helper()
	b := core.NewBuilder("textonly-diff")
	if err := b.AddQuery(textonlyDiffQuery); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTemplate("New", `<html><body><h1><SFMT title></h1><SFMT_UL story></body></html>`); err != nil {
		t.Fatal(err)
	}
	b.SetRootCollection("TextOnlyRoot")
	return b
}

func textonlyDiffData() *graph.Graph {
	g := workload.Articles(14, 3)
	front := g.NewNode("front")
	g.AddToCollection("Root", graph.NodeValue(front))
	for _, a := range g.Collection("Articles") {
		g.AddEdge(front, "story", a)
	}
	return g
}

func mutateTextonly(t *testing.T, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	mutateArticles(t, g, rng)
	// Keep newly added articles reachable from the root.
	front, ok := g.NodeByName("front")
	if !ok {
		t.Fatal("front node missing")
	}
	for _, a := range g.Collection("Articles") {
		g.AddEdge(front, "story", a)
	}
}

// mutatePeopleCSV edits the organization's people table in place:
// renames, new hires, departures. Deterministic for a given seed.
func mutatePeopleCSV(s string, rng *rand.Rand) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for k := 0; k < 3; k++ {
		switch rng.Intn(3) {
		case 0: // rename
			if len(lines) > 1 {
				i := 1 + rng.Intn(len(lines)-1)
				f := strings.Split(lines[i], ",")
				f[2] = fmt.Sprintf("Edited Person %d", rng.Intn(1000))
				lines[i] = strings.Join(f, ",")
			}
		case 1: // new hire
			id := fmt.Sprintf("px%d", rng.Int63())
			lines = append(lines, fmt.Sprintf("%s,%s,New Hire %d,973-360-0000,B-001,dept0,", id, id, rng.Intn(1000)))
		case 2: // departure
			if len(lines) > 4 {
				i := 1 + rng.Intn(len(lines)-1)
				lines = append(lines[:i:i], lines[i+1:]...)
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// orgDiffBuilder wires the five organization sources; people supplies
// the (mutable) people table so refreshes observe edits.
func orgDiffBuilder(t *testing.T, src *workload.OrgSources, people func() (string, error)) *core.Builder {
	t.Helper()
	spec := workload.OrgSpec(false)
	b := core.NewBuilder(spec.Name)
	if err := b.AddSourceFunc("people.csv", "csv", people); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("departments.csv", "csv", src.DepartmentsCSV); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("projects.txt", "structured", src.ProjectsTxt); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("refs.bib", "bibtex", src.BibTeX); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetIndex(spec.Index)
	b.SetRootCollection(spec.RootCollection)
	return b
}

// runOrgDifferential drives the mediated path: edits flow through the
// wrapper and GAV mapping, and the mediator's warehouse delta — not a
// caller-computed diff — keys the incremental rebuild.
func runOrgDifferential(t *testing.T, workers int) string {
	t.Helper()
	src := workload.Organization(30, 8, 3, 7)
	people := src.PeopleCSV
	b := orgDiffBuilder(t, src, func() (string, error) { return people, nil })
	b.SetWorkers(workers)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// An untouched source refreshes to a noop.
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental == nil || res.Incremental.Mode != "noop" {
		t.Fatalf("unchanged sources: rebuild mode %v, want noop", res.Incremental)
	}
	prev = res

	var digest string
	for round := 0; round < diffRounds; round++ {
		people = mutatePeopleCSV(people, rand.New(rand.NewSource(900+int64(round))))
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Incremental == nil {
			t.Fatalf("round %d: no incremental info", round)
		}
		if st := res.Incremental.Site; st != nil && st.Reused > 0 && !st.Full {
			selectiveRounds++
		}
		snapshot := people
		sb := orgDiffBuilder(t, src, func() (string, error) { return snapshot, nil })
		sb.SetWorkers(workers)
		want, err := sb.Build()
		if err != nil {
			t.Fatalf("round %d scratch build: %v", round, err)
		}
		comparePages(t, fmt.Sprintf("round %d", round), res, want)
		prev = res
		digest = siteDigest(res)
	}
	return digest
}

// TestDifferentialDeltaRebuilds is the differential suite over all
// five example sites at worker counts 1, 4, and 16: random edit
// scripts, chained delta rebuilds, byte-identical to from-scratch, and
// byte-identical across worker counts.
func TestDifferentialDeltaRebuilds(t *testing.T) {
	digests := map[string]string{}
	check := func(t *testing.T, site string, workers int, digest string) {
		t.Helper()
		if workers == 1 {
			digests[site] = digest
		} else if want := digests[site]; want != "" && digest != want {
			t.Errorf("%s: final site at workers=%d differs from workers=1", site, workers)
		}
	}
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("bibliography", func(t *testing.T) {
				d := runGraphDifferential(t, specBuilder(workload.BibliographySpec()),
					func() *graph.Graph { return workload.Bibliography(18, 42) }, mutateBib, workers, 100)
				check(t, "bibliography", workers, d)
			})
			t.Run("cnn", func(t *testing.T) {
				d := runGraphDifferential(t, specBuilder(workload.ArticleSpec(false)),
					func() *graph.Graph { return workload.Articles(20, 11) }, mutateArticles, workers, 200)
				check(t, "cnn", workers, d)
			})
			t.Run("homepage", func(t *testing.T) {
				d := runGraphDifferential(t, homepageDiffBuilder, homepageDiffData, mutateHomepage, workers, 300)
				check(t, "homepage", workers, d)
			})
			t.Run("textonly", func(t *testing.T) {
				d := runGraphDifferential(t, textonlyDiffBuilder, textonlyDiffData, mutateTextonly, workers, 400)
				check(t, "textonly", workers, d)
			})
			t.Run("orgsite", func(t *testing.T) {
				d := runOrgDifferential(t, workers)
				check(t, "orgsite", workers, d)
			})
		})
	}
	if selectiveRounds == 0 {
		t.Error("no differential round reused any page — incremental rebuilds degraded to always-full")
	}
}
