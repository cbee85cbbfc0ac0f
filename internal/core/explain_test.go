package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

func TestBuilderExplain(t *testing.T) {
	b := bibBuilder(t, 25)
	ex, err := b.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Site != "homepage" || ex.DataNodes == 0 || ex.DataEdges == 0 {
		t.Errorf("explain header = %+v", ex)
	}
	if len(ex.Queries) != 1 {
		t.Fatalf("queries = %d, want 1", len(ex.Queries))
	}
	q := ex.Queries[0]
	if q.Plan == nil {
		t.Fatal("no plan")
	}
	// The per-operator row counts must sum consistently with the
	// query's result.
	if got := q.Plan.TotalRows(); got != q.Bindings {
		t.Errorf("plan rows = %d, bindings = %d", got, q.Bindings)
	}
	// Explain must report exactly what a real build computes.
	res, err := bibBuilder(t, 25).Build()
	if err != nil {
		t.Fatal(err)
	}
	if q.Bindings != res.Stats.Bindings {
		t.Errorf("explain bindings = %d, build bindings = %d", q.Bindings, res.Stats.Bindings)
	}

	var sb strings.Builder
	ex.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"site homepage", "planner: interpreter", "query[0]", "block #0"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain text missing %q:\n%s", want, out)
		}
	}

	// The report must round-trip as JSON (the /debug/explain payload).
	raw, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explain
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Queries[0].Bindings != q.Bindings {
		t.Errorf("JSON round-trip lost bindings: %d != %d", back.Queries[0].Bindings, q.Bindings)
	}
}

func TestBuilderExplainOptimizer(t *testing.T) {
	b := bibBuilder(t, 25)
	b.EnableOptimizer()
	ex, err := b.Explain()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ex.WriteText(&sb)
	if !strings.Contains(sb.String(), "planner: cost-based optimizer") {
		t.Errorf("optimizer not reported:\n%s", sb.String())
	}
	// Optimizer steps carry estimates; the interpreter's don't.
	sawEstimate := false
	var walk func(n *struql.PlanNode)
	walk = func(n *struql.PlanNode) {
		if n == nil {
			return
		}
		for _, s := range n.Steps {
			if s.EstRows >= 0 {
				sawEstimate = true
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ex.Queries[0].Plan)
	if !sawEstimate {
		t.Error("no step carries an optimizer estimate")
	}
	if got := ex.Queries[0].Plan.TotalRows(); got != ex.Queries[0].Bindings {
		t.Errorf("plan rows = %d, bindings = %d", got, ex.Queries[0].Bindings)
	}
}

// TestExplainWorkerInvariance: profiling stats (except wall time) are
// identical at any worker count.
func TestExplainWorkerInvariance(t *testing.T) {
	var base *Explain
	for _, workers := range []int{1, 4, 16} {
		b := bibBuilder(t, 30)
		b.SetWorkers(workers)
		ex, err := b.Explain()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ex.Queries {
			q.Plan.StripWall()
		}
		ex.Workers = 0
		if base == nil {
			base = ex
			continue
		}
		if !reflect.DeepEqual(base, ex) {
			t.Errorf("explain at workers=%d differs", workers)
		}
	}
}

func TestPageProvenance(t *testing.T) {
	b := bibBuilder(t, 25)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prov, err := b.Provenance(res)
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := prov.Page("index.html")
	if !ok {
		t.Fatalf("no provenance for index.html; pages: %v", res.Site.Paths())
	}
	if pp.Func == "" || pp.TupleCount == 0 {
		t.Errorf("index provenance = %+v", pp)
	}
	// The root page transitively depends on every publication.
	if len(pp.Sources) == 0 {
		t.Error("index page has no sources")
	}
	var sb strings.Builder
	pp.WriteText(&sb)
	for _, want := range []string{"page index.html", "skolem", "sources"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("why output missing %q:\n%s", want, sb.String())
		}
	}
	// Lookup without .html and by the page object's name works too.
	if _, ok := prov.Page("index"); !ok {
		t.Error("lookup by bare path failed")
	}
	byName, ok := prov.Page("RootPage()")
	if !ok || byName.Path != "index.html" {
		t.Errorf("lookup by object name = %+v, %v", byName, ok)
	}
	if _, ok := prov.Page("no-such-page"); ok {
		t.Error("lookup of unknown page succeeded")
	}
}

// TestProvenanceAgreesWithRenderClosure cross-checks the two
// dependency analyses: when one source object changes, every page
// whose recorded provenance includes that object must belong to a
// Skolem function in the schema impact's render closure — the page
// classes the incremental rebuilder would consider re-rendering.
func TestProvenanceAgreesWithRenderClosure(t *testing.T) {
	b := bibBuilder(t, 25)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prov, err := b.Provenance(res)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one real source object out of the data graph.
	pubs := res.DataGraph.Collection("Publications")
	if len(pubs) == 0 {
		t.Fatal("no publications")
	}
	changed := res.DataGraph.NodeName(pubs[0].OID())
	delta := &graph.Delta{
		ChangedObjects: []string{changed},
		TouchedLabels:  []string{"title"},
	}
	closure := schema.Analyze(res.Schema, delta).RenderClosure(res.Schema)
	if len(closure) == 0 {
		t.Fatal("empty render closure for a changed publication")
	}
	checked := 0
	for path := range res.Site.Pages {
		pp, ok := prov.Page(path)
		if !ok {
			continue
		}
		depends := false
		for _, s := range pp.Sources {
			if s.Name == changed {
				depends = true
			}
		}
		if depends && pp.Func != "" {
			checked++
			if !closure[pp.Func] {
				t.Errorf("page %s depends on %s but %s is outside the render closure %v",
					path, changed, pp.Func, closure)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no page's provenance mentions the changed object")
	}
}
