package strudel_test

// Property-based maintenance suite: incremental rebuilds are tested
// against randomly generated, *replayable* edit scripts. A script is a
// list of discrete ops (each carrying its own seed), so any subset of
// a failing script is itself a valid script — which is what makes
// shrinking possible: on failure the suite greedily removes ops while
// the failure reproduces and reports the minimal failing script.
//
// The property, for every site and every script: chain one incremental
// rebuild per op, then require the final pages and the site-graph dump
// to be identical to a from-scratch build over identically edited
// data — at worker counts 1, 4 and 16.

import (
	"fmt"
	"math/rand"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/workload"
)

// editOp is one deterministic edit: kind selects the mutation, seed
// feeds the op-local rng that picks targets and fresh values. Applying
// the same op to structurally identical graphs performs the identical
// edit.
type editOp struct {
	Kind int
	Seed int64
}

type editScript []editOp

func randomScript(rng *rand.Rand, n, kinds int) editScript {
	s := make(editScript, n)
	for i := range s {
		s[i] = editOp{Kind: rng.Intn(kinds), Seed: rng.Int63()}
	}
	return s
}

func without(s editScript, i, n int) editScript {
	out := make(editScript, 0, len(s)-n)
	out = append(out, s[:i]...)
	return append(out, s[min(i+n, len(s)):]...)
}

// shrinkScript minimizes a failing script: first drops chunks, then
// single ops, until no single removal still fails.
func shrinkScript(fails func(editScript) bool, s editScript) editScript {
	for _, chunk := range []int{8, 4, 2, 1} {
		for i := 0; i+chunk <= len(s); {
			if cand := without(s, i, chunk); fails(cand) {
				s = cand
			} else {
				i++
			}
		}
	}
	return s
}

// applyBibOp performs one edit on a bibliography-shaped graph. Errors
// are ignored uniformly: both the live graph and the scratch replay
// see the same state, so they fail (or not) identically.
func applyBibOp(g *graph.Graph, op editOp) {
	rng := rand.New(rand.NewSource(op.Seed))
	pubs := g.Collection("Publications")
	if len(pubs) == 0 {
		return
	}
	oid := pubs[rng.Intn(len(pubs))].OID()
	switch op.Kind % 5 {
	case 0: // retitle
		if old, ok := g.First(oid, "title"); ok {
			g.RemoveEdge(oid, "title", old)
		}
		g.AddEdge(oid, "title", graph.Str(fmt.Sprintf("Edited title %d", rng.Intn(1000))))
	case 1: // extra category
		g.AddEdge(oid, "category", graph.Str(fmt.Sprintf("Topic %d", rng.Intn(5))))
	case 2: // drop a random attribute edge
		out := g.Out(oid)
		if len(out) > 1 {
			e := out[rng.Intn(len(out))]
			g.RemoveEdge(oid, e.Label, e.To)
		}
	case 3: // brand-new publication
		name := fmt.Sprintf("pub_prop%d", rng.Int63())
		id := g.NewNode(name)
		g.AddToCollection("Publications", graph.NodeValue(id))
		g.AddEdge(id, "title", graph.Str(fmt.Sprintf("New work %d", rng.Intn(1000))))
		g.AddEdge(id, "author", graph.Str("Ann Author"))
		g.AddEdge(id, "year", graph.Int(int64(1990+rng.Intn(8))))
		g.AddEdge(id, "category", graph.Str(fmt.Sprintf("Topic %d", rng.Intn(5))))
	case 4: // remove a publication outright
		if len(pubs) > 3 {
			g.RemoveNode(oid)
		}
	}
}

// applyArticleOp performs one edit on a CNN-shaped corpus.
func applyArticleOp(g *graph.Graph, op editOp) {
	rng := rand.New(rand.NewSource(op.Seed))
	arts := g.Collection("Articles")
	if len(arts) == 0 {
		return
	}
	v := arts[rng.Intn(len(arts))]
	oid := v.OID()
	switch op.Kind % 5 {
	case 0: // retitle
		if old, ok := g.First(oid, "title"); ok {
			g.RemoveEdge(oid, "title", old)
		}
		g.AddEdge(oid, "title", graph.Str(fmt.Sprintf("Breaking %d", rng.Intn(1000))))
	case 1: // extra section
		g.AddEdge(oid, "section", graph.Str(workload.Sections[rng.Intn(len(workload.Sections))]))
	case 2: // related-link churn
		other := arts[rng.Intn(len(arts))]
		if other != v {
			g.AddEdge(oid, "related", other)
		}
	case 3: // new article
		name := fmt.Sprintf("art_prop%d", rng.Int63())
		id := g.NewNode(name)
		g.AddToCollection("Articles", graph.NodeValue(id))
		g.AddEdge(id, "title", graph.Str(fmt.Sprintf("Story %d", rng.Intn(1000))))
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

func applyHomepageOp(g *graph.Graph, op editOp) {
	if op.Kind%6 == 5 {
		rng := rand.New(rand.NewSource(op.Seed))
		if mff, ok := g.NodeByName("mff"); ok {
			g.AddEdge(mff, "activity", graph.Str(fmt.Sprintf("Talk %d", rng.Intn(1000))))
		}
		return
	}
	applyBibOp(g, op)
}

func applyTextonlyOp(g *graph.Graph, op editOp) {
	applyArticleOp(g, op)
	// Keep every article (new ones included) reachable from the root.
	if front, ok := g.NodeByName("front"); ok {
		for _, a := range g.Collection("Articles") {
			g.AddEdge(front, "story", a)
		}
	}
}

// compareResultsErr is the error-returning twin of comparePages, with
// the site-graph dump check on top; the shrinker needs the comparison
// as a predicate rather than a test failure.
func compareResultsErr(got, want *core.Result) error {
	if len(got.Site.Pages) != len(want.Site.Pages) {
		return fmt.Errorf("page count %d, scratch %d", len(got.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		gp := got.Site.Pages[path]
		if gp == nil {
			return fmt.Errorf("page %s missing", path)
		}
		if gp.HTML != wp.HTML {
			return fmt.Errorf("page %s differs from scratch", path)
		}
	}
	if g, w := got.SiteGraph.DumpString(), want.SiteGraph.DumpString(); g != w {
		return fmt.Errorf("site-graph dump differs from scratch")
	}
	return nil
}

// runScript chains one incremental rebuild per op, each over an edited
// copy of the previous op's data, and compares the end state against a
// from-scratch build over identically edited data. Returns nil when
// the property holds.
func runScript(t *testing.T, mk func(t *testing.T) *core.Builder,
	fresh func() *graph.Graph, apply func(*graph.Graph, editOp),
	script editScript, workers int) error {
	t.Helper()
	cur := fresh()
	b := mk(t)
	b.SetWorkers(workers)
	b.SetDataGraph(cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err) // configuration error, not a property failure
	}
	for i, op := range script {
		cur = copyOf(cur)
		apply(cur, op)
		b.SetDataGraph(cur)
		res, err := b.Rebuild(prev)
		if err != nil {
			return fmt.Errorf("op %d: rebuild: %v", i, err)
		}
		prev = res
	}
	sdata := fresh()
	for _, op := range script {
		apply(sdata, op)
	}
	sb := mk(t)
	sb.SetWorkers(workers)
	sb.SetDataGraph(sdata)
	want, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return compareResultsErr(prev, want)
}

// propSite is one site under property test.
type propSite struct {
	name  string
	mk    func(t *testing.T) *core.Builder
	fresh func() *graph.Graph
	apply func(*graph.Graph, editOp)
	kinds int
}

func propSites() []propSite {
	return []propSite{
		{"bibliography", specBuilder(workload.BibliographySpec()),
			func() *graph.Graph { return workload.Bibliography(18, 42) }, applyBibOp, 5},
		{"cnn", specBuilder(workload.ArticleSpec(false)),
			func() *graph.Graph { return workload.Articles(20, 11) }, applyArticleOp, 5},
		{"cnn-sports", specBuilder(workload.ArticleSpec(true)),
			func() *graph.Graph { return workload.Articles(20, 11) }, applyArticleOp, 5},
		{"homepage", homepageDiffBuilder, homepageDiffData, applyHomepageOp, 6},
		{"textonly", textonlyDiffBuilder, textonlyDiffData, applyTextonlyOp, 5},
	}
}

// TestPropertyDifferentialMaintenance: random edit scripts over the
// example sites, at workers 1/4/16. On failure, the script shrinks to
// a minimal failing subset before reporting.
func TestPropertyDifferentialMaintenance(t *testing.T) {
	trials, length := 2, 8
	if testing.Short() {
		trials, length = 1, 5
	}
	for _, site := range propSites() {
		site := site
		t.Run(site.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				workers := workers
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					for trial := 0; trial < trials; trial++ {
						rng := rand.New(rand.NewSource(int64(7000 + 100*trial + workers)))
						script := randomScript(rng, length, site.kinds)
						err := runScript(t, site.mk, site.fresh, site.apply, script, workers)
						if err == nil {
							continue
						}
						fails := func(s editScript) bool {
							return runScript(t, site.mk, site.fresh, site.apply, s, workers) != nil
						}
						minScript := shrinkScript(fails, script)
						minErr := runScript(t, site.mk, site.fresh, site.apply, minScript, workers)
						t.Fatalf("property failed: %v\nminimal failing script (%d of %d ops): %+v\nminimal failure: %v",
							err, len(minScript), len(script), minScript, minErr)
					}
				})
			}
		})
	}
}

// TestPropertyDifferential10k runs one edit script against a
// 10,000-publication site (1,000 in -short mode): incremental
// rebuilds must stay byte-identical to scratch at scale, not just on
// the toy corpora.
func TestPropertyDifferential10k(t *testing.T) {
	size := 10000
	if testing.Short() {
		size = 1000
	}
	fresh := func() *graph.Graph { return workload.Bibliography(size, 7) }
	mk := specBuilder(workload.BibliographySpec())
	script := randomScript(rand.New(rand.NewSource(9001)), 5, 5)
	if err := runScript(t, mk, fresh, applyBibOp, script, 4); err != nil {
		fails := func(s editScript) bool {
			return runScript(t, mk, fresh, applyBibOp, s, 4) != nil
		}
		minScript := shrinkScript(fails, script)
		t.Fatalf("property failed at %d objects: %v\nminimal failing script: %+v", size, err, minScript)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
