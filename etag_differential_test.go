package strudel_test

// Differential tests of page ETags: tags must be byte-identical across
// worker counts and between from-scratch and delta rebuilds of equal
// content, and a one-object data edit must change exactly the tags of
// pages whose bytes changed — verified both structurally (against the
// bodies) and behaviorally (revalidating every page through a serving
// edge across the swap: pages with unchanged bytes answer 304).

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/server"
	"strudel/internal/workload"
)

// etagMap collects path → ETag for every page of a build.
func etagMap(t *testing.T, res *core.Result) map[string]string {
	t.Helper()
	m := make(map[string]string, len(res.Site.Pages))
	for path, p := range res.Site.Pages {
		if p.ETag == "" {
			t.Fatalf("page %s has no ETag", path)
		}
		if !strings.HasPrefix(p.ETag, `"`) || strings.HasPrefix(p.ETag, "W/") {
			t.Fatalf("page %s has a weak or malformed ETag %q", path, p.ETag)
		}
		m[path] = p.ETag
	}
	return m
}

func etagBibBuilder(t *testing.T, workers int, data *graph.Graph) *core.Builder {
	t.Helper()
	b := specBuilder(workload.BibliographySpec())(t)
	b.SetWorkers(workers)
	b.SetDataGraph(data)
	return b
}

// TestETagWorkerInvariance: the same data yields byte-identical ETags
// at workers 1, 4, and 16.
func TestETagWorkerInvariance(t *testing.T) {
	var base map[string]string
	for _, workers := range []int{1, 4, 16} {
		res, err := etagBibBuilder(t, workers, workload.Bibliography(18, 42)).Build()
		if err != nil {
			t.Fatal(err)
		}
		m := etagMap(t, res)
		if base == nil {
			base = m
			if len(base) < 4 {
				t.Fatalf("suspiciously small site: %d pages", len(base))
			}
			continue
		}
		if len(m) != len(base) {
			t.Fatalf("workers=%d: %d pages, want %d", workers, len(m), len(base))
		}
		for path, tag := range base {
			if m[path] != tag {
				t.Errorf("workers=%d: page %s ETag %q, want %q", workers, path, m[path], tag)
			}
		}
	}
}

// TestETagDeltaEqualsScratch: chained delta rebuilds assign every page
// the same ETag a from-scratch build of the same edited data assigns —
// including reused pages, whose tags are carried, not recomputed.
func TestETagDeltaEqualsScratch(t *testing.T) {
	fresh := func() *graph.Graph { return workload.Bibliography(18, 42) }
	cur := fresh()
	b := etagBibBuilder(t, 4, cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < diffRounds; round++ {
		seed := int64(700 + round)
		cur = copyOf(cur)
		mutateBib(t, cur, rand.New(rand.NewSource(seed)))
		b.SetDataGraph(cur)
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		sdata := fresh()
		for r := 0; r <= round; r++ {
			mutateBib(t, sdata, rand.New(rand.NewSource(700+int64(r))))
		}
		want, err := etagBibBuilder(t, 4, sdata).Build()
		if err != nil {
			t.Fatalf("round %d scratch: %v", round, err)
		}
		got, exp := etagMap(t, res), etagMap(t, want)
		if len(got) != len(exp) {
			t.Fatalf("round %d: %d pages vs scratch %d", round, len(got), len(exp))
		}
		for path, tag := range exp {
			if got[path] != tag {
				t.Errorf("round %d: page %s delta ETag %q != scratch %q", round, path, got[path], tag)
			}
		}
		prev = res
	}
}

// TestETagExactInvalidation: retitling one publication changes the
// ETag of exactly the pages whose bytes changed. A page the cone
// re-rendered to identical bytes keeps its tag, answers 304 to it
// across the SetSource swap and keeps its resident hot entry; only hot
// pages whose bytes changed are re-materialized.
func TestETagExactInvalidation(t *testing.T) {
	cur := workload.Bibliography(18, 42)
	b := etagBibBuilder(t, 4, cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prevTags := etagMap(t, prev)

	// Serve the first build with every page hot, and validate every
	// page once.
	acct := server.NewAccounting(len(prevTags))
	edge := server.NewEdge(server.NewSiteSource(prev.Site), server.EdgeConfig{
		Mode: "static", HotPages: len(prevTags), Accounting: acct,
	})
	now := time.Now()
	for path := range prevTags {
		acct.Record("/"+path, 200, 1, time.Millisecond, now)
	}
	edge.Rerank()
	if hot := edge.HotKeys(); len(hot) != len(prevTags) {
		t.Fatalf("%d of %d pages hot before the swap", len(hot), len(prevTags))
	}
	for path, tag := range prevTags {
		req := httptest.NewRequest(http.MethodGet, "/"+path, nil)
		rec := httptest.NewRecorder()
		edge.ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Header().Get("ETag") != tag {
			t.Fatalf("GET /%s = %d etag %q, want 200 %q", path, rec.Code, rec.Header().Get("ETag"), tag)
		}
	}

	// One-object edit: retitle a single publication in a copy.
	retitle := func(g *graph.Graph) {
		pubs := g.Collection("Publications")
		sort.Slice(pubs, func(i, j int) bool {
			return g.NodeName(pubs[i].OID()) < g.NodeName(pubs[j].OID())
		})
		oid := pubs[0].OID()
		if v, ok := g.First(oid, "title"); ok {
			g.RemoveEdge(oid, "title", v)
		}
		if err := g.AddEdge(oid, "title", graph.Str("A Retitled Work")); err != nil {
			t.Fatal(err)
		}
	}
	cur = copyOf(cur)
	retitle(cur)
	b.SetDataGraph(cur)
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	newTags := etagMap(t, res)
	if len(newTags) != len(prevTags) {
		t.Fatalf("page set changed under a retitle: %d -> %d", len(prevTags), len(newTags))
	}

	// Structural check: tag changed iff the body changed.
	changed, unchanged := 0, 0
	for path, tag := range newTags {
		tagChanged := tag != prevTags[path]
		bodyChanged := res.Site.Pages[path].HTML != prev.Site.Pages[path].HTML
		if tagChanged != bodyChanged {
			t.Errorf("page %s: ETag changed=%v but body changed=%v", path, tagChanged, bodyChanged)
		}
		if bodyChanged {
			changed++
		} else {
			unchanged++
		}
	}
	if changed == 0 || unchanged == 0 {
		t.Fatalf("degenerate edit: %d changed, %d unchanged — test proves nothing", changed, unchanged)
	}
	// The cone over-approximates: at least one page it re-rendered
	// came out byte-identical, and that page keeps its tag.
	if res.Incremental == nil || res.Incremental.Site == nil {
		t.Fatalf("rebuild reported no page-level reuse: %+v", res.Incremental)
	}
	var sameBytes []string
	for _, path := range res.Incremental.Site.RenderedPaths {
		if res.Site.Pages[path].HTML == prev.Site.Pages[path].HTML {
			sameBytes = append(sameBytes, path)
		}
	}
	if len(sameBytes) == 0 {
		t.Fatalf("no re-rendered page kept its bytes (rendered %v) — test proves nothing", res.Incremental.Site.RenderedPaths)
	}

	// Behavioral check: swap the edge to the new build and revalidate
	// every page with its old tag. Pages with unchanged bytes answer
	// 304, re-rendered ones included; changed ones serve fresh bytes
	// under the new tag.
	edge.SetSource(server.NewSiteSource(res.Site))
	if hot := edge.HotKeys(); len(hot) != len(prevTags) {
		t.Errorf("%d of %d pages hot after the swap", len(hot), len(prevTags))
	}
	if got := edge.Stats().Rematerializations; got != uint64(changed) {
		t.Errorf("rematerializations = %d, want %d (hot pages whose bytes changed)", got, changed)
	}
	for path, oldTag := range prevTags {
		req := httptest.NewRequest(http.MethodGet, "/"+path, nil)
		req.Header.Set("If-None-Match", oldTag)
		rec := httptest.NewRecorder()
		edge.ServeHTTP(rec, req)
		if res.Site.Pages[path].HTML == prev.Site.Pages[path].HTML {
			if rec.Code != 304 {
				t.Errorf("unchanged page %s: revalidation = %d, want 304", path, rec.Code)
			}
		} else {
			if rec.Code != 200 {
				t.Errorf("changed page %s: revalidation = %d, want 200", path, rec.Code)
				continue
			}
			if got := rec.Header().Get("ETag"); got != newTags[path] {
				t.Errorf("changed page %s: served tag %q, want %q", path, got, newTags[path])
			}
			if body := rec.Body.String(); body != res.Site.Pages[path].HTML {
				t.Errorf("changed page %s: stale bytes served", path)
			}
		}
	}
	t.Logf("exact invalidation: %d/%d pages invalidated by a one-object retitle; re-rendered with unchanged bytes: %v",
		changed, len(newTags), sameBytes)
}
