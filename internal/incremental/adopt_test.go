package incremental

import (
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

// fill materializes the whole test site so the cache holds pages of
// every class.
func fill(t *testing.T, d *Decomposition) {
	t.Helper()
	if _, err := d.MaterializeAll("Roots"); err != nil {
		t.Fatal(err)
	}
	if len(d.CachedKeys()) == 0 {
		t.Fatal("cache empty after materialization")
	}
}

// refresh decomposes the site query over edited test data, the way a
// refresh does over a new warehouse, and returns the new
// decomposition with the data delta from the original.
func refresh(t *testing.T, old *graph.Graph, edit func(string) string) (*Decomposition, *graph.Delta) {
	t.Helper()
	data := edit(bibData)
	res, err := datadef.Parse("BIBTEX", data)
	if err != nil {
		t.Fatal(err)
	}
	return Decompose(struql.MustParse(siteQuery), res.Graph, nil), graph.Diff(old, res.Graph)
}

// adopt carries prev's cache into next under the delta's impact.
func adopt(next, prev *Decomposition, delta *graph.Delta) int {
	return next.AdoptCache(prev, schema.Analyze(next.Schema(), delta))
}

func TestInvalidateDeltaSelective(t *testing.T) {
	g, d := setup(t)
	fill(t, d)

	// Touch pub1's title in the data.
	next, delta := refresh(t, g, func(s string) string {
		return strings.Replace(s, `title "Alpha"`, `title "Alpha v2"`, 1)
	})
	if len(delta.ChangedObjects) != 1 || len(delta.TouchedLabels) != 1 || delta.TouchedLabels[0] != "title" {
		t.Fatalf("delta = %+v, want pub1's title", delta)
	}

	adopted := adopt(next, d, delta)
	kept := next.CachedKeys()
	// The outer block's unconstrained arc variable makes PaperPage
	// sensitive to any label; YearPage's clauses are guarded by
	// l = "year" and must survive a title-only delta. RootPage's
	// YearPage link is also year-guarded.
	for _, k := range kept {
		if pref, _ := next.Resolve(k); pref.Func == "PaperPage" {
			t.Errorf("PaperPage entry %s survived a title delta", k)
		}
	}
	wantKept := map[string]bool{"YearPage(1997)": true, "YearPage(1998)": true, "RootPage()": true}
	if len(kept) != len(wantKept) {
		t.Errorf("kept %v, want %v", kept, wantKept)
	}
	for _, k := range kept {
		if !wantKept[k] {
			t.Errorf("unexpected survivor %s", k)
		}
	}
	if adopted != len(kept) {
		t.Errorf("adopted %d entries but %d are cached", adopted, len(kept))
	}

	// Computing the dropped page observes the new title.
	ref, ok := next.Resolve("PaperPage(pub1)")
	if !ok {
		t.Fatal("PaperPage(pub1) unknown")
	}
	pd, err := next.Page(ref)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pd.First("title"); !ok || v != graph.Str("Alpha v2") {
		t.Errorf("recomputed title = %v, want Alpha v2", v)
	}
}

func TestInvalidateDeltaEmptyKeepsEverything(t *testing.T) {
	g, d := setup(t)
	fill(t, d)
	n := len(d.CachedKeys())
	next, delta := refresh(t, g, func(s string) string { return s })
	if !delta.Empty() {
		t.Fatalf("unchanged data diffed to %+v", delta)
	}
	if adopted := adopt(next, d, delta); adopted != n {
		t.Fatalf("empty delta adopted %d of %d entries", adopted, n)
	}
	if got := next.CachedKeys(); strings.Join(got, " ") != strings.Join(d.CachedKeys(), " ") {
		t.Fatalf("empty delta kept %v, want %v", got, d.CachedKeys())
	}
}

func TestInvalidateDeltaNilDropsEverything(t *testing.T) {
	g, d := setup(t)
	fill(t, d)
	next, _ := refresh(t, g, func(s string) string { return s })
	if adopted := adopt(next, d, nil); adopted != 0 {
		t.Fatalf("nil delta must drop the whole cache, adopted %d entries", adopted)
	}
	if adopted := next.AdoptCache(d, nil); adopted != 0 {
		t.Fatalf("nil impact must drop the whole cache, adopted %d entries", adopted)
	}
	if len(next.CachedKeys()) != 0 {
		t.Fatal("cache not empty after a nil-delta refresh")
	}
}

func TestInvalidateDeltaYearChange(t *testing.T) {
	g, d := setup(t)
	fill(t, d)
	// pub2 moves from the 1998 year page to the 1997 one.
	next, delta := refresh(t, g, func(s string) string {
		return strings.Replace(s, `title "Beta" year 1998`, `title "Beta" year 1997`, 1)
	})
	adopt(next, d, delta)
	// A year delta satisfies the l = "year" guard: YearPage and the
	// year-linked RootPage must go too, alongside the PaperPages.
	if keys := next.CachedKeys(); len(keys) != 0 {
		t.Errorf("year delta must drop every class, kept %v", keys)
	}
}
