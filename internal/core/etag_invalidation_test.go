package core

import (
	"strings"
	"testing"

	"strudel/internal/workload"
)

// TestRebuildReportsInvalidatedPages: the rebuild observable lists
// exactly the pages whose ETag changed — the set a serving edge must
// refetch — and a noop rebuild reports none.
func TestRebuildReportsInvalidatedPages(t *testing.T) {
	const n = 30
	b := bibBuilder(t, n)
	data := workload.Bibliography(n, 42)
	b.SetDataGraph(data)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	retitle(t, data, "pub7", "A Fresh Title")
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Incremental
	if info == nil || len(info.Invalidated) == 0 {
		t.Fatalf("no invalidated pages reported: %+v", info)
	}
	if len(info.Invalidated) == len(res.Site.Pages) {
		t.Fatalf("all %d pages invalidated by a one-object retitle", len(info.Invalidated))
	}
	// The report must agree with a direct ETag diff of the two builds.
	want := map[string]bool{}
	for path, p := range res.Site.Pages {
		if pp, ok := prev.Site.Pages[path]; !ok || pp.ETag != p.ETag {
			want[path] = true
		}
	}
	if len(want) != len(info.Invalidated) {
		t.Fatalf("Invalidated has %d paths, ETag diff says %d", len(info.Invalidated), len(want))
	}
	for _, path := range info.Invalidated {
		if !want[path] {
			t.Errorf("path %s reported invalidated but its ETag is unchanged", path)
		}
	}

	// prev is no longer the journal's baseline, so rebuilding it again
	// renders the same data in full: equal content must keep its tags.
	full, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	if full.Incremental == nil || full.Incremental.Mode != "full" {
		t.Fatalf("rebuilding a superseded result: %+v, want full", full.Incremental)
	}
	for path, p := range full.Site.Pages {
		if res.Site.Pages[path].ETag != p.ETag {
			t.Errorf("full rebuild of identical data changed ETag of %s", path)
		}
	}
	if s := res.Incremental.Summary(); !strings.Contains(s, "invalidated") {
		t.Errorf("Summary() omits invalidation count: %q", s)
	}
}
