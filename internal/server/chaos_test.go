// Chaos tests: fault-injected sources and overload against the full
// stack (core builder → mediator → dynamic serving), all under -race.
// The invariant throughout: a STRUDEL site keeps answering from the
// last good warehouse when sources misbehave, and sheds rather than
// queues when overloaded.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/core"
	"strudel/internal/incremental"
	"strudel/internal/mediator"
	"strudel/internal/resilience"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

// chaosSite builds a one-source dynamic site whose source content is
// produced by fetch. It returns the builder (call BuildDynamic for a
// renderer over the latest refresh).
func chaosSite(t *testing.T, fetch func() (string, error)) *core.Builder {
	t.Helper()
	b := core.NewBuilder("chaos")
	if err := b.AddSourceFunc("pubs.def", "datadef", fetch); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(`
INPUT DataGraph
CREATE RootPage()
COLLECT Roots(RootPage())
WHERE Publications(x), x -> "title" -> tt
CREATE PubPage(tt)
LINK PubPage(tt) -> "Title" -> tt,
     RootPage() -> "Pub" -> PubPage(tt)`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTemplate("RootPage", `<h1>Pubs</h1><SFMT_UL Pub ORDER=ascend KEY=Title>`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTemplate("PubPage", `<h1><SFMT Title></h1>`); err != nil {
		t.Fatal(err)
	}
	b.SetRootCollection("Roots")
	return b
}

func pubDef(title string) string {
	return fmt.Sprintf(`
collection Publications { }
object pub1 in Publications { title %q }
`, title)
}

// TestChaosFlakySourceServesStale: a source that starts failing after
// the first refresh degrades — refreshes keep succeeding from
// last-good data, a background refresher keeps swapping renderers, and
// concurrent clients see 200s from the stale warehouse throughout.
// When the source recovers, new data flows through.
func TestChaosFlakySourceServesStale(t *testing.T) {
	var title atomic.Value
	title.Store("Alpha")
	inj := workload.NewFaultInjector(workload.FaultConfig{Seed: 7})
	fetch := inj.WrapFetch(func() (string, error) { return pubDef(title.Load().(string)), nil })
	b := chaosSite(t, fetch)
	b.SetResilience(mediator.Resilience{
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})

	r0, err := b.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[incremental.Renderer]
	cur.Store(r0)
	srv := httptest.NewServer(DynamicEdge(cur.Load, "Roots", EdgeConfig{}))
	defer srv.Close()
	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "Alpha") {
		t.Fatalf("healthy / = %d %q", code, body)
	}

	// The source goes down and its data "changes" — the change must
	// NOT appear (fetches fail), but serving must continue.
	inj.SetErrorRate(1)
	title.Store("Beta")

	stopRefresh := make(chan struct{})
	var refreshWG sync.WaitGroup
	refreshWG.Add(1)
	go func() { // background refresher: rebuild + swap until stopped
		defer refreshWG.Done()
		for {
			select {
			case <-stopRefresh:
				return
			default:
			}
			r, err := b.BuildDynamic()
			if err != nil {
				t.Errorf("degraded refresh must not fail: %v", err)
				return
			}
			cur.Store(r)
		}
	}()

	var clientWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(srv.URL + "/")
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("degraded serving: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	clientWG.Wait()
	close(stopRefresh)
	refreshWG.Wait()

	// Still the stale (last-good) data, and the report says degraded.
	if _, body := get(t, srv, "/"); !strings.Contains(body, "Alpha") || strings.Contains(body, "Beta") {
		t.Errorf("degraded body = %q, want stale Alpha", body)
	}
	if rep := b.LastRefresh(); rep == nil || !contains(rep.Degraded(), "pubs.def") {
		t.Errorf("report = %+v, want pubs.def degraded", rep)
	}

	// Recovery: the next refresh picks up the new data.
	inj.SetErrorRate(0)
	r2, err := b.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(r2)
	if _, body := get(t, srv, "/"); !strings.Contains(body, "Beta") {
		t.Errorf("recovered body = %q, want Beta", body)
	}
	if rep := b.LastRefresh(); rep == nil || !rep.Ok() {
		t.Errorf("recovered report = %+v, want ok", rep)
	}
}

// TestChaosHangingSourceKeepsServing: a source that accepts the fetch
// and never answers is cut off at the fetch deadline; the refresh
// degrades to last-good data instead of hanging the build, and the
// site keeps serving.
func TestChaosHangingSourceKeepsServing(t *testing.T) {
	inj := workload.NewFaultInjector(workload.FaultConfig{HangEvery: 2})
	defer inj.Release() // do not leak the abandoned fetch goroutine's block
	fetch := inj.WrapFetch(workload.StaticFetch(pubDef("Alpha")))
	b := chaosSite(t, fetch)
	b.SetResilience(mediator.Resilience{FetchTimeout: 20 * time.Millisecond})

	r0, err := b.BuildDynamic() // fetch 1: healthy
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[incremental.Renderer]
	cur.Store(r0)
	srv := httptest.NewServer(DynamicEdge(cur.Load, "Roots", EdgeConfig{}))
	defer srv.Close()

	start := time.Now()
	r1, err := b.BuildDynamic() // fetch 2: hangs, must time out
	if err != nil {
		t.Fatalf("refresh with hanging source: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("refresh took %v — fetch deadline did not cut the hang", d)
	}
	cur.Store(r1)
	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "Alpha") {
		t.Errorf("serving after hang = %d %q", code, body)
	}
	rep := b.LastRefresh()
	if rep == nil || !contains(rep.Degraded(), "pubs.def") {
		t.Fatalf("report = %+v, want pubs.def degraded", rep)
	}
	if s, ok := rep.Source("pubs.def"); !ok || s.Err == nil || !strings.Contains(s.Err.Error(), "timed out") {
		t.Errorf("degraded status = %+v, want timeout error", s)
	}
	if st := inj.Stats(); st.Hangs != 1 {
		t.Errorf("hangs = %d", st.Hangs)
	}
}

// TestChaosSheddingBoundsQueue: with renders blocked and max-in-flight
// reached, extra concurrent requests are rejected immediately with 503
// and Retry-After instead of queueing unboundedly; the in-flight ones
// complete once unblocked.
func TestChaosSheddingBoundsQueue(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, gate := hangingRenderer(t)
	h := Shed(reg, "dynamic", 2, DynamicEdge(
		func() *incremental.Renderer { return r }, "Roots", EdgeConfig{}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	const clients = 10
	codes := make(chan int, clients)
	retryAfter := make(chan string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/")
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			if resp.StatusCode == 503 {
				retryAfter <- resp.Header.Get("Retry-After")
			}
			codes <- resp.StatusCode
		}()
	}
	// Give the shed responses a moment, then unblock the two in-flight
	// renders; everyone returns.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(codes)
	close(retryAfter)

	var ok, shed int
	for code := range codes {
		switch code {
		case 200:
			ok++
		case 503:
			shed++
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok != 2 || shed != clients-2 {
		t.Errorf("ok=%d shed=%d, want 2/%d", ok, shed, clients-2)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Error("shed response missing Retry-After")
		}
	}
	c := reg.Counter("strudel_http_shed_total",
		"Requests rejected with 503 because max in-flight was reached, by serving mode.",
		"mode", "dynamic")
	if int(c.Value()) != shed {
		t.Errorf("shed counter = %d, want %d", c.Value(), shed)
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
