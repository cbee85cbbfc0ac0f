package strudel_test

// Load-generation conformance: the full serving stack (observability
// middleware → edge with hot/cold materialization → built site) under
// a deterministic Zipf workload with mixed conditional traffic. The
// paper's serving argument (Sec. 6) is that a materialized site keeps
// click latency flat at scale; here the edge must answer at least 90%
// of requests from strong-ETag revalidation (304) or resident hot
// bytes, hold an in-process p99 floor, and survive injected faults
// without corrupting a single body. BENCH_serve.json snapshots the
// measured numbers.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"strudel/internal/server"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

// loadStack builds the bibliography site and the full serving stack
// over it: accounting-fed observability wrapping a compressing,
// hot/cold-materializing edge.
func loadStack(t *testing.T) (*server.Edge, *server.Accounting, []string, map[string]string) {
	t.Helper()
	res, err := etagBibBuilder(t, 4, workload.Bibliography(40, 42)).Build()
	if err != nil {
		t.Fatal(err)
	}
	acct := server.NewAccounting(1024)
	edge := server.NewEdge(server.NewSiteSource(res.Site), server.EdgeConfig{
		Mode:       "static",
		HotPages:   12,
		Compress:   true,
		Accounting: acct,
		Registry:   telemetry.NewRegistry(),
	})
	paths := make([]string, 0, len(res.Site.Pages))
	bodies := make(map[string]string, len(res.Site.Pages))
	for p, pg := range res.Site.Pages {
		paths = append(paths, p)
		bodies["/"+p] = pg.HTML
	}
	sort.Strings(paths)
	return edge, acct, paths, bodies
}

// TestLoadConformance drives the stack with closed-loop Zipf clients
// and asserts the serving floors: ≥90% of measured requests answered
// by a 304 or resident hot bytes, zero body corruption, and generous
// in-process latency/throughput floors (loose enough for a loaded CI
// host, tight enough to catch an accidentally quadratic edge).
func TestLoadConformance(t *testing.T) {
	edge, acct, paths, bodies := loadStack(t)
	h := server.InstrumentObserved(server.Observability{Accounting: acct}, "static", edge)

	validate := func(path string, status int, etag string, body []byte) error {
		switch status {
		case 200:
			if want := bodies[path]; string(body) != want {
				return fmt.Errorf("%s: served %d bytes, want %d", path, len(body), len(want))
			}
			if etag == "" {
				return fmt.Errorf("%s: 200 without ETag", path)
			}
		case 304:
			if len(body) != 0 {
				return fmt.Errorf("%s: 304 carried %d bytes", path, len(body))
			}
		default:
			return fmt.Errorf("%s: status %d", path, status)
		}
		return nil
	}

	// Warmup: populate the accounting table, then rank and materialize
	// the hot set — the steady state a long-running server converges to
	// via RunPolicy.
	warm, err := workload.RunLoad(h, paths, workload.LoadOptions{
		Clients: 2, Requests: 200, Seed: 17, ZipfS: 1.3, Gzip: true, Validate: validate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors > 0 {
		t.Fatalf("warmup errors: %d (%s)", warm.Errors, warm.FirstError)
	}
	edge.Rerank()
	if hot := edge.HotKeys(); len(hot) == 0 {
		t.Fatal("no pages materialized after warmup")
	}

	// Measured pass. Edge stats are cumulative, so diff around it.
	before := edge.Stats()
	rep, err := workload.RunLoad(h, paths, workload.LoadOptions{
		Clients: 4, Requests: 800, Seed: 99, ZipfS: 1.3, Gzip: true, Validate: validate,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := edge.Stats()

	if rep.Errors > 0 {
		t.Errorf("%d request errors (first: %s)", rep.Errors, rep.FirstError)
	}
	reqs := after.Requests - before.Requests
	hits := (after.Hits304 - before.Hits304) + (after.HitsHot - before.HitsHot)
	if reqs == 0 {
		t.Fatal("edge saw no traffic")
	}
	ratio := float64(hits) / float64(reqs)
	if ratio < 0.90 {
		t.Errorf("edge hit ratio = %.3f (304=%d hot=%d of %d), want >= 0.90",
			ratio, after.Hits304-before.Hits304, after.HitsHot-before.HitsHot, reqs)
	}
	// Floors: in-process serves complete in microseconds; these bounds
	// only catch pathological regressions, not environmental noise.
	if rep.P99 > 250*time.Millisecond {
		t.Errorf("p99 = %v, want <= 250ms", rep.P99)
	}
	if rep.RPS < 200 {
		t.Errorf("RPS = %.0f, want >= 200", rep.RPS)
	}
	t.Logf("load: %d reqs, ratio=%.3f (304=%d hot=%d cold=%d), p50=%v p99=%v rps=%.0f",
		reqs, ratio, after.Hits304-before.Hits304, after.HitsHot-before.HitsHot,
		after.Cold-before.Cold, rep.P50, rep.P99, rep.RPS)
}

// TestLoadConformanceWithFaults: injected transport faults surface as
// counted client errors; every response that does come back is still
// byte-correct, and the edge's own error counters stay clean (the
// faults are client-side, the edge never sees them).
func TestLoadConformanceWithFaults(t *testing.T) {
	edge, acct, paths, bodies := loadStack(t)
	h := server.InstrumentObserved(server.Observability{Accounting: acct}, "static", edge)
	inj := workload.NewFaultInjector(workload.FaultConfig{ErrorRate: 0.1, Seed: 5})
	rep, err := workload.RunLoad(h, paths, workload.LoadOptions{
		Clients: 2, Requests: 200, Seed: 3, Faults: inj,
		Validate: func(path string, status int, etag string, body []byte) error {
			if status == 200 && string(body) != bodies[path] {
				return fmt.Errorf("%s: corrupt body", path)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := inj.Stats()
	if st.Errors == 0 {
		t.Fatal("fault injector idle — test proves nothing")
	}
	if rep.Errors != st.Errors {
		t.Errorf("report errors %d != injected %d (validation failure leaked through)",
			rep.Errors, st.Errors)
	}
	if es := edge.Stats(); es.Errors != 0 {
		t.Errorf("edge recorded %d internal errors under client-side faults", es.Errors)
	}
}
