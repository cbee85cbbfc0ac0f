package strudel_test

// Integration tests for the observability layer: EXPLAIN profiles must
// be identical at any worker count on every example site, and page
// provenance must agree with the incremental rebuilder — every page a
// selective rebuild re-renders traces back to a changed object, and no
// reused page does.

import (
	"math/rand"
	"reflect"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/workload"
)

// introspectionSites are the graph-backed example sites, sharing the
// builders and edit scripts of the differential suite.
func introspectionSites() []struct {
	name      string
	mkBuilder func(t *testing.T) *core.Builder
	fresh     func() *graph.Graph
	mutate    func(*testing.T, *graph.Graph, *rand.Rand)
	seed0     int64
} {
	return []struct {
		name      string
		mkBuilder func(t *testing.T) *core.Builder
		fresh     func() *graph.Graph
		mutate    func(*testing.T, *graph.Graph, *rand.Rand)
		seed0     int64
	}{
		{"bibliography", specBuilder(workload.BibliographySpec()),
			func() *graph.Graph { return workload.Bibliography(18, 42) }, mutateBib, 100},
		{"cnn", specBuilder(workload.ArticleSpec(false)),
			func() *graph.Graph { return workload.Articles(20, 11) }, mutateArticles, 200},
		{"homepage", homepageDiffBuilder, homepageDiffData, mutateHomepage, 300},
		{"textonly", textonlyDiffBuilder, textonlyDiffData, mutateTextonly, 400},
	}
}

// TestExplainWorkerInvarianceAcrossSites: on every example site, the
// profiled plan is identical (minus wall time) at worker counts 1, 4,
// and 16, and its per-operator row counts sum to the query's bindings.
func TestExplainWorkerInvarianceAcrossSites(t *testing.T) {
	for _, site := range introspectionSites() {
		site := site
		t.Run(site.name, func(t *testing.T) {
			var base *core.Explain
			for _, workers := range []int{1, 4, 16} {
				b := site.mkBuilder(t)
				b.SetWorkers(workers)
				b.SetDataGraph(site.fresh())
				ex, err := b.Explain()
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range ex.Queries {
					if q.Plan == nil {
						t.Fatalf("workers=%d query[%d]: no plan", workers, q.Index)
					}
					if got := q.Plan.TotalRows(); got != q.Bindings {
						t.Errorf("workers=%d query[%d]: plan rows = %d, bindings = %d",
							workers, q.Index, got, q.Bindings)
					}
					q.Plan.StripWall()
				}
				ex.Workers = 0
				if base == nil {
					base = ex
					continue
				}
				if !reflect.DeepEqual(base, ex) {
					t.Errorf("explain at workers=%d differs from workers=1", workers)
				}
			}
		})
	}
}

// TestExplainOptimizerAcrossSites: under the cost-based planner the
// same row-accounting invariant holds on every site.
func TestExplainOptimizerAcrossSites(t *testing.T) {
	for _, site := range introspectionSites() {
		site := site
		t.Run(site.name, func(t *testing.T) {
			b := site.mkBuilder(t)
			b.EnableOptimizer()
			b.SetDataGraph(site.fresh())
			ex, err := b.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if !ex.Optimizer {
				t.Error("explain does not report the optimizer")
			}
			for _, q := range ex.Queries {
				if got := q.Plan.TotalRows(); got != q.Bindings {
					t.Errorf("query[%d]: plan rows = %d, bindings = %d", q.Index, got, q.Bindings)
				}
			}
		})
	}
}

// runProvenanceDifferential replays the differential edit script and
// checks both provenance directions on every selective round:
//
//   - every re-rendered page's derivation (its Sources, old and new
//     union — a page re-rendered because an object was *removed* only
//     names it in the old record) includes at least one changed data
//     object, and
//   - no reused page's render closure (its Objects) contains a site
//     object the site-graph diff reports added or changed.
//
// The two directions deliberately use different granularities.
// Sources record full binding rows, which over-approximate rendering
// dependence (a witness variable can change without the page's bytes
// changing), so the reuse check compares at the site-object level,
// where provenance (forward reachability) and the rebuilder (reverse
// reachability from the changed objects) must agree exactly.
//
// The site diff starts at an independent scratch build of the pre-edit
// data, not at the rebuilder's own previous site graph. Each round
// edits copies of both sides' data. checked accumulates the rendered
// and reused pages checked.
func runProvenanceDifferential(t *testing.T, mkBuilder func(t *testing.T) *core.Builder,
	fresh func() *graph.Graph, mutate func(*testing.T, *graph.Graph, *rand.Rand),
	seed0 int64, checked *[2]int) {
	t.Helper()
	provenance := func(b *core.Builder, res *core.Result) *core.Provenance {
		t.Helper()
		prov, err := b.Provenance(res)
		if err != nil {
			t.Fatal(err)
		}
		return prov
	}
	cur := fresh()
	b := mkBuilder(t)
	b.SetDataGraph(cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prevProv := provenance(b, prev)
	old := fresh()
	scratch := mkBuilder(t)
	scratch.SetDataGraph(old)
	for round := 0; round < diffRounds; round++ {
		seed := seed0 + int64(round)
		base, err := scratch.Build()
		if err != nil {
			t.Fatal(err)
		}
		cur = copyOf(cur)
		mutate(t, cur, rand.New(rand.NewSource(seed)))
		b.SetDataGraph(cur)
		delta := graph.Diff(old, cur)
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		old = copyOf(old)
		mutate(t, old, rand.New(rand.NewSource(seed)))
		scratch.SetDataGraph(old)
		resProv := provenance(b, res)
		mode := res.Incremental.Mode
		if mode != "selective" {
			prev, prevProv = res, resProv
			continue
		}
		changed := map[string]bool{}
		for _, name := range delta.Objects() {
			changed[name] = true
		}
		siteDelta := graph.Diff(base.SiteGraph, res.SiteGraph)
		changedSite := map[string]bool{}
		for _, name := range append(append([]string{}, siteDelta.AddedObjects...), siteDelta.ChangedObjects...) {
			changedSite[name] = true
		}
		renderedPaths := map[string]bool{}
		for _, p := range res.Incremental.Site.RenderedPaths {
			renderedPaths[p] = true
		}
		for path := range res.Site.Pages {
			pp, ok := resProv.Page(path)
			if !ok {
				t.Errorf("round %d (%s): no provenance for page %s", round, mode, path)
				continue
			}
			if renderedPaths[path] {
				checked[0]++
				// Union of the page's sources before and after the edit.
				touches := false
				for _, p := range []*core.Provenance{resProv, prevProv} {
					if rp, ok := p.Page(path); ok {
						for _, s := range rp.Sources {
							if changed[s.Name] {
								touches = true
							}
						}
					}
				}
				if !touches {
					t.Errorf("round %d (%s): page %s was re-rendered but its provenance names no changed object %v",
						round, mode, path, delta.Objects())
				}
			} else {
				checked[1]++
				for _, name := range pp.Objects {
					if changedSite[name] {
						t.Errorf("round %d (%s): page %s was reused but its render closure contains changed site object %s",
							round, mode, path, name)
					}
				}
			}
		}
		prev, prevProv = res, resProv
	}
}

// TestProvenanceTracksDeltaRebuilds is the provenance half of the
// differential suite: across random edit scripts on every example
// site, provenance and the incremental rebuilder must agree on which
// pages a change can reach.
func TestProvenanceTracksDeltaRebuilds(t *testing.T) {
	var checked [2]int
	for _, site := range introspectionSites() {
		site := site
		t.Run(site.name, func(t *testing.T) {
			runProvenanceDifferential(t, site.mkBuilder, site.fresh, site.mutate, site.seed0, &checked)
		})
	}
	t.Logf("selective rounds: checked %d rendered, %d reused pages", checked[0], checked[1])
	if checked[0] == 0 {
		t.Error("no selective round re-rendered any page — the provenance check never ran")
	}
	if checked[1] == 0 {
		t.Error("no selective round reused any page — the reuse check never ran")
	}
}
