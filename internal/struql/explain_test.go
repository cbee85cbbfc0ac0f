package struql

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

const explainTestQuery = `INPUT BIBTEX
CREATE RootPage()
COLLECT Roots(RootPage())
WHERE Publications(x), x -> l -> v
CREATE PaperPage(x)
LINK PaperPage(x) -> l -> v,
     RootPage() -> "Paper" -> PaperPage(x)
OUTPUT Site`

func parseQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestProfilerPlanMatchesResult(t *testing.T) {
	q := parseQuery(t, explainTestQuery)
	g := fig2Graph(t)
	prof := NewProfiler()
	res := mustEval(t, q, g, &Options{Profiler: prof})

	plan := prof.Plan()
	if plan == nil {
		t.Fatal("no plan collected")
	}
	// The per-block row counts must account for exactly the bindings
	// the construction stage consumed.
	if got := plan.TotalRows(); got != res.Bindings {
		t.Errorf("plan.TotalRows() = %d, Result.Bindings = %d", got, res.Bindings)
	}
	// The WHERE block records one step per condition, with rows flowing
	// through.
	var whereNode *PlanNode
	for _, c := range plan.Children {
		if len(c.Where) > 0 {
			whereNode = c
		}
	}
	if whereNode == nil {
		t.Fatal("no plan node for the WHERE block")
	}
	if len(whereNode.Steps) != len(whereNode.Where) {
		t.Fatalf("steps = %d, conditions = %d", len(whereNode.Steps), len(whereNode.Where))
	}
	for _, s := range whereNode.Steps {
		if s.Method == "" {
			t.Errorf("step %q has no method", s.Cond)
		}
		if s.EstRows >= 0 {
			t.Errorf("interpreter step %q claims an estimate (%v)", s.Cond, s.EstRows)
		}
	}
	if whereNode.Rows == 0 || whereNode.SeedRows == 0 {
		t.Errorf("where block rows = %d seed = %d, want > 0", whereNode.Rows, whereNode.SeedRows)
	}

	var sb strings.Builder
	plan.WriteText(&sb)
	for _, want := range []string{"block #0", "Publications(x)", "rows"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("explain text missing %q:\n%s", want, sb.String())
		}
	}
}

// TestProfilerWorkerInvariance pins the determinism contract: every
// profiled field except wall time is identical at any worker count.
func TestProfilerWorkerInvariance(t *testing.T) {
	g := fig2Graph(t)
	var base *PlanNode
	for _, workers := range []int{1, 4, 16} {
		q := parseQuery(t, explainTestQuery)
		prof := NewProfiler()
		mustEval(t, q, g, &Options{Profiler: prof, Workers: workers, ParallelThreshold: 1})
		plan := prof.Plan()
		plan.StripWall()
		if base == nil {
			base = plan
			continue
		}
		if !reflect.DeepEqual(base, plan) {
			t.Errorf("plan at workers=%d differs from workers=1", workers)
		}
	}
}

// TestProfilerReuse: a profiler handed to a second evaluation is reset
// and reports the new run, not an accumulation.
func TestProfilerReuse(t *testing.T) {
	g := fig2Graph(t)
	prof := NewProfiler()
	q := parseQuery(t, explainTestQuery)
	mustEval(t, q, g, &Options{Profiler: prof})
	first := prof.Plan().TotalRows()
	q2 := parseQuery(t, explainTestQuery)
	res := mustEval(t, q2, g, &Options{Profiler: prof})
	if got := prof.Plan().TotalRows(); got != res.Bindings || got != first {
		t.Errorf("second run TotalRows = %d, want %d (Bindings %d)", got, first, res.Bindings)
	}
}

func TestProvenanceRecordsConstructedNodes(t *testing.T) {
	q := parseQuery(t, explainTestQuery)
	g := fig2Graph(t)
	prov := NewProvenance()
	res := mustEval(t, q, g, &Options{Provenance: prov})
	if res.NewNodes == 0 {
		t.Fatal("query constructed nothing")
	}
	ids := prov.Nodes()
	if len(ids) == 0 {
		t.Fatal("no provenance recorded")
	}

	byFunc := map[string][]*NodeProvenance{}
	for _, id := range ids {
		np, ok := prov.Node(id)
		if !ok {
			t.Fatalf("Nodes() listed %v but Node() misses it", id)
		}
		byFunc[np.Func] = append(byFunc[np.Func], np)
	}
	if len(byFunc["RootPage"]) != 1 {
		t.Fatalf("RootPage records = %d, want 1", len(byFunc["RootPage"]))
	}
	if len(byFunc["PaperPage"]) != 2 {
		t.Fatalf("PaperPage records = %d, want 2 (pub1, pub2)", len(byFunc["PaperPage"]))
	}
	for _, np := range byFunc["PaperPage"] {
		if np.TupleCount == 0 || len(np.Tuples) == 0 {
			t.Errorf("%s: no binding tuples recorded", np.Name)
		}
		if len(np.Tuples) > maxProvTuples {
			t.Errorf("%s: tuple sample %d exceeds cap %d", np.Name, len(np.Tuples), maxProvTuples)
		}
		// The page's bindings range over exactly one source publication.
		var srcNames []string
		for _, s := range np.Sources {
			srcNames = append(srcNames, s.Name)
		}
		if len(srcNames) != 1 || !strings.HasPrefix(srcNames[0], "pub") {
			t.Errorf("%s: sources = %v, want one pubN", np.Name, srcNames)
		}
		// x -> l -> v binds l over the pub's attribute labels.
		found := false
		for _, a := range np.Attrs {
			if a == "title" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: attrs = %v, want to include \"title\"", np.Name, np.Attrs)
		}
	}
	// Each sampled tuple holds exactly its row's bound variables: none
	// for the root block's row, x, l and v for the where block's.
	for _, id := range ids {
		np, _ := prov.Node(id)
		for _, tup := range np.Tuples {
			if vars := slices.Sorted(maps.Keys(tup)); len(vars) != 0 && !slices.Equal(vars, []string{"l", "v", "x"}) {
				t.Errorf("%s: tuple %v binds %v, want none or [l v x]", np.Name, tup, vars)
			}
			for name, v := range tup {
				if v.IsZero() {
					t.Errorf("%s: tuple %v holds unbound %s", np.Name, tup, name)
				}
			}
		}
	}
	// RootPage is created unconditionally but linked from the WHERE
	// block (`RootPage() -> "Paper" -> PaperPage(x)`), so its link list
	// — and therefore its provenance — depends on every publication.
	root := byFunc["RootPage"][0]
	if root.TupleCount < 2 {
		t.Errorf("RootPage tuple count = %d, want the WHERE block's rows", root.TupleCount)
	}
	var rootSrcs []string
	for _, s := range root.Sources {
		rootSrcs = append(rootSrcs, s.Name)
	}
	if !reflect.DeepEqual(rootSrcs, []string{"pub1", "pub2"}) {
		t.Errorf("RootPage sources = %v, want [pub1 pub2]", rootSrcs)
	}
}

// TestProvenanceAcrossQueries: one recorder spans the queries composed
// into one output graph, and their rows are told apart by variable
// name, not by slot. Both queries bind their only variable in slot 0,
// so {x: m} and {y: m} are two tuples of P(), not one.
func TestProvenanceAcrossQueries(t *testing.T) {
	g := fig2Graph(t)
	prov := NewProvenance()
	opts := &Options{Output: g.NewSibling("site"), Provenance: prov}
	mustEval(t, parseQuery(t, `WHERE Publications(x), x -> "year" -> 1997 CREATE P() LINK P() -> "a" -> x`), g, opts)
	mustEval(t, parseQuery(t, `WHERE Publications(y), y -> "year" -> 1997 CREATE P() LINK P() -> "b" -> y`), g, opts)
	id, ok := opts.Output.NodeByName("P()")
	if !ok {
		t.Fatal("P() missing")
	}
	np, _ := prov.Node(id)
	if np.TupleCount != 2 || len(np.Tuples) != 2 {
		t.Errorf("P(): %d tuples %v, want {x: pub1} and {y: pub1}", np.TupleCount, np.Tuples)
	}
}

// TestProvenanceWorkerInvariance: the recorded derivations are part of
// the deterministic output, identical at any worker count.
func TestProvenanceWorkerInvariance(t *testing.T) {
	g := fig2Graph(t)
	snapshot := func(workers int) map[string]*NodeProvenance {
		q := parseQuery(t, explainTestQuery)
		prov := NewProvenance()
		mustEval(t, q, g, &Options{Provenance: prov, Workers: workers, ParallelThreshold: 1})
		out := map[string]*NodeProvenance{}
		for _, id := range prov.Nodes() {
			np, _ := prov.Node(id)
			out[np.Name] = np
		}
		return out
	}
	base := snapshot(1)
	for _, workers := range []int{4, 16} {
		if got := snapshot(workers); !reflect.DeepEqual(base, got) {
			t.Errorf("provenance at workers=%d differs from workers=1", workers)
		}
	}
}

func TestSkolemFuncOf(t *testing.T) {
	for name, want := range map[string]string{
		"YearPage(1997)":  "YearPage",
		"PaperPage(pub1)": "PaperPage",
		"RootPage()":      "RootPage",
		"plain":           "",
		"(odd":            "",
	} {
		if got := skolemFuncOf(name); got != want {
			t.Errorf("skolemFuncOf(%q) = %q, want %q", name, got, want)
		}
	}
}
