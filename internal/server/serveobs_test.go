package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"strudel/internal/incremental"
	"strudel/internal/mediator"
	"strudel/internal/resilience"
	"strudel/internal/telemetry"
)

func TestAccountingRecordAndSnapshot(t *testing.T) {
	a := NewAccounting(8)
	now := time.Unix(1_000_000, 0)
	for i := 0; i < 5; i++ {
		a.Record("/hot.html", 200, 100, 2*time.Millisecond, now)
	}
	a.Record("/cold.html", 404, 0, 500*time.Microsecond, now)
	a.Record("/err.html", 500, 10, 50*time.Millisecond, now)

	snap := a.Snapshot(10)
	if snap.Tracked != 3 || snap.TotalHits != 7 || snap.Evictions != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Pages) != 3 || snap.Pages[0].Path != "/hot.html" || snap.Pages[0].Hits != 5 {
		t.Fatalf("pages = %+v", snap.Pages)
	}
	hot := snap.Pages[0]
	if hot.Bytes != 500 || hot.LastStatus != 200 {
		t.Errorf("hot row = %+v", hot)
	}
	// 2ms observations land in the (1ms, 2.5ms] bucket.
	if hot.P50Ms <= 1 || hot.P50Ms > 2.5 {
		t.Errorf("p50 = %v, want in (1, 2.5]", hot.P50Ms)
	}
	if hot.MeanMs < 1.99 || hot.MeanMs > 2.01 {
		t.Errorf("mean = %v, want 2", hot.MeanMs)
	}
	var errRow PageStats
	for _, p := range snap.Pages {
		if p.Path == "/err.html" {
			errRow = p
		}
	}
	if errRow.Errors != 1 {
		t.Errorf("error row = %+v", errRow)
	}
	// Top-K truncation is by hits.
	if top := a.Hot(1); len(top) != 1 || top[0].Path != "/hot.html" {
		t.Errorf("Hot(1) = %+v", top)
	}
}

func TestAccountingLRUEvictionDeterministic(t *testing.T) {
	a := NewAccounting(3)
	now := time.Unix(1_000_000, 0)
	// Fill: a, b, c. Touch a again so b is the least recently served.
	for _, p := range []string{"/a", "/b", "/c", "/a"} {
		a.Record(p, 200, 1, time.Millisecond, now)
	}
	// A new page evicts exactly /b.
	a.Record("/d", 200, 1, time.Millisecond, now)
	snap := a.Snapshot(10)
	if snap.Tracked != 3 || snap.Evictions != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	got := map[string]bool{}
	for _, p := range snap.Pages {
		got[p.Path] = true
	}
	if got["/b"] || !got["/a"] || !got["/c"] || !got["/d"] {
		t.Errorf("tracked pages = %v, want a, c, d (b evicted)", got)
	}
	// TotalHits survives eviction: it counts requests, not rows.
	if snap.TotalHits != 5 {
		t.Errorf("total hits = %d, want 5", snap.TotalHits)
	}
	// A long tail churns through the table without growing it.
	for i := 0; i < 100; i++ {
		a.Record(fmt.Sprintf("/tail/%d", i), 200, 1, time.Millisecond, now)
	}
	if a.Len() != 3 {
		t.Errorf("table grew to %d, bound is 3", a.Len())
	}
}

// TestAccountingConcurrent hammers the table from many goroutines —
// hot pages, a churning long tail, and interleaved snapshots — and
// checks the exact total. Run under -race this pins down the table's
// locking.
func TestAccountingConcurrent(t *testing.T) {
	a := NewAccounting(16)
	reg := telemetry.NewRegistry()
	a.Instrument(reg)
	a.SetFreshness(func() time.Time { return time.Unix(999_000, 0) })
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 4 {
				case 0:
					a.Record("/hot", 200, 10, time.Millisecond, time.Unix(1_000_000, 0))
				case 1:
					a.Record(fmt.Sprintf("/w%d", w), 200, 10, time.Millisecond, time.Unix(1_000_000, 0))
				case 2:
					a.Record(fmt.Sprintf("/tail/%d/%d", w, i), 404, 0, time.Microsecond, time.Unix(1_000_000, 0))
				default:
					_ = a.Snapshot(5)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := a.Snapshot(20)
	wantHits := uint64(workers * perWorker * 3 / 4)
	if snap.TotalHits != wantHits {
		t.Errorf("total hits = %d, want %d", snap.TotalHits, wantHits)
	}
	if snap.Tracked > 16 {
		t.Errorf("tracked = %d, bound is 16", snap.Tracked)
	}
	if got := reg.Counter("strudel_page_hits_total", "").Value(); got != wantHits {
		t.Errorf("hits counter = %d, want %d", got, wantHits)
	}
	// The hot page survives tail churn and reports staleness.
	var hot *PageStats
	for i := range snap.Pages {
		if snap.Pages[i].Path == "/hot" {
			hot = &snap.Pages[i]
		}
	}
	if hot == nil {
		t.Fatalf("hot page evicted; pages = %+v", snap.Pages)
	}
	if hot.Hits != uint64(workers*perWorker/4) {
		t.Errorf("hot hits = %d, want %d", hot.Hits, workers*perWorker/4)
	}
	if hot.StalenessSeconds != 1000 {
		t.Errorf("staleness = %v, want 1000", hot.StalenessSeconds)
	}
}

// flushCountingWriter fakes an underlying ResponseWriter that supports
// Flush and ReadFrom, recording what reached it.
type flushCountingWriter struct {
	header  http.Header
	buf     bytes.Buffer
	status  int
	flushes int
	reads   int
}

func (f *flushCountingWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *flushCountingWriter) WriteHeader(code int)        { f.status = code }
func (f *flushCountingWriter) Write(b []byte) (int, error) { return f.buf.Write(b) }
func (f *flushCountingWriter) Flush()                      { f.flushes++ }
func (f *flushCountingWriter) ReadFrom(src io.Reader) (int64, error) {
	f.reads++
	return f.buf.ReadFrom(src)
}

func TestStatusWriterPassthrough(t *testing.T) {
	under := &flushCountingWriter{}
	sw := &statusWriter{ResponseWriter: under}

	// Flusher reaches the underlying writer through the wrapper.
	var w http.ResponseWriter = sw
	fl, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not expose http.Flusher")
	}
	fl.Flush()
	if under.flushes != 1 {
		t.Errorf("flushes = %d, want 1", under.flushes)
	}

	// ReadFrom uses the underlying fast path and counts bytes.
	rf, ok := w.(io.ReaderFrom)
	if !ok {
		t.Fatal("statusWriter does not expose io.ReaderFrom")
	}
	n, err := rf.ReadFrom(strings.NewReader("hello world"))
	if err != nil || n != 11 {
		t.Fatalf("ReadFrom = %d, %v", n, err)
	}
	if under.reads != 1 {
		t.Errorf("underlying ReadFrom calls = %d, want 1", under.reads)
	}
	if sw.bytes != 11 || sw.status != http.StatusOK {
		t.Errorf("captured bytes=%d status=%d, want 11, 200", sw.bytes, sw.status)
	}

	// Write still counts on top.
	if _, err := w.Write([]byte("!!")); err != nil {
		t.Fatal(err)
	}
	if sw.bytes != 13 {
		t.Errorf("bytes = %d, want 13", sw.bytes)
	}

	// Unwrap exposes the underlying writer (http.ResponseController).
	if sw.Unwrap() != http.ResponseWriter(under) {
		t.Error("Unwrap did not return the wrapped writer")
	}

	// A ResponseRecorder has no ReadFrom: the wrapper falls back to a
	// plain copy instead of failing.
	rec := httptest.NewRecorder()
	sw2 := &statusWriter{ResponseWriter: rec}
	if n, err := sw2.ReadFrom(strings.NewReader("abc")); err != nil || n != 3 {
		t.Fatalf("fallback ReadFrom = %d, %v", n, err)
	}
	if rec.Body.String() != "abc" || sw2.bytes != 3 {
		t.Errorf("fallback copy: body=%q bytes=%d", rec.Body.String(), sw2.bytes)
	}
}

// TestInstrumentedStreamingFlush is the end-to-end form of the
// statusWriter fix: a streaming handler behind the full middleware
// chain can still assert http.Flusher and deliver chunks before the
// response completes.
func TestInstrumentedStreamingFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	firstChunk := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "no flusher", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "chunk1\n")
		fl.Flush()
		close(firstChunk)
		<-release
		fmt.Fprint(w, "chunk2\n")
	})
	srv := httptest.NewServer(Instrument(reg, "static", h))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The first chunk must arrive while the handler is still running —
	// only possible if Flush reached the real connection.
	select {
	case <-firstChunk:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never flushed")
	}
	buf := make([]byte, 64)
	n, err := resp.Body.Read(buf)
	if err != nil || string(buf[:n]) != "chunk1\n" {
		t.Fatalf("first read = %q, %v (want flushed chunk1)", buf[:n], err)
	}
	close(release)
	rest, err := io.ReadAll(resp.Body)
	if err != nil || string(rest) != "chunk2\n" {
		t.Fatalf("rest = %q, %v", rest, err)
	}
}

// TestHealthEndpoints wires readiness to real mediator refresh
// reports, the way the serving CLI does: a refresh where a source
// failed with no last-good graph flips /readyz to 503; a merely
// degraded refresh (serving stale last-good data) stays ready — the
// resilience layer's whole point is that stale pages beat no pages.
func TestHealthEndpoints(t *testing.T) {
	var mu sync.Mutex
	var report *mediator.RefreshReport
	mux := http.NewServeMux()
	AttachHealth(mux, Health{Ready: func() error {
		mu.Lock()
		defer mu.Unlock()
		if report != nil && report.Failed() {
			return fmt.Errorf("refresh failed: %s", report.Summary())
		}
		return nil
	}})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	setReport := func(r *mediator.RefreshReport) {
		mu.Lock()
		report = r
		mu.Unlock()
	}

	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// No refresh yet (first build pending report): ready.
	if code, body := get(t, srv, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}
	// Degraded — a source fell back to last-good data: still ready.
	setReport(&mediator.RefreshReport{Sources: []mediator.SourceStatus{
		{Name: "refs.bib", State: mediator.Degraded, Err: fmt.Errorf("network down")},
	}})
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Errorf("/readyz while degraded = %d, want 200 (stale beats nothing)", code)
	}
	// Failed — a source down with no last-good graph to serve: 503.
	setReport(&mediator.RefreshReport{Sources: []mediator.SourceStatus{
		{Name: "refs.bib", State: mediator.Failed, Err: fmt.Errorf("network down")},
	}})
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while failed = %d, want 503", code)
	}
	if !strings.Contains(body, "refs.bib") {
		t.Errorf("503 body should carry the reason, got %q", body)
	}
	// Liveness is unaffected by readiness.
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz while not ready = %d, want 200", code)
	}
}

// TestOpsSnapshotMatchesWorkload drives a deterministic workload
// through the full observed middleware and checks /debug/ops reports
// exactly the requests served — the PR's acceptance criterion.
func TestOpsSnapshotMatchesWorkload(t *testing.T) {
	reg := telemetry.NewRegistry()
	acct := NewAccounting(64)
	acct.Instrument(reg)
	clk := resilience.NewFakeClock(time.Unix(1_000_000, 0))
	slo := telemetry.NewSLO(time.Second, 0.99, time.Minute, clk)
	tracer := telemetry.NewRequestTracer(4, 16)
	inflight := NewInflight()
	var accessBuf strings.Builder
	var accessMu sync.Mutex

	pages := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/missing") {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "<h1>%s</h1>", r.URL.Path)
	})
	obs := Observability{
		Registry:   reg,
		Accounting: acct,
		SLO:        slo,
		AccessLog:  telemetry.NewAccessLogger(&lockedWriter{mu: &accessMu, sb: &accessBuf}),
		Tracer:     tracer,
		Inflight:   inflight,
	}
	mux := http.NewServeMux()
	mux.Handle("/", InstrumentObserved(obs, "static", pages))
	AttachOps(mux, &Ops{Mode: "static", Accounting: acct, SLO: slo,
		Tracer: tracer, Inflight: inflight})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Deterministic workload: known hit counts per page.
	workload := map[string]int{
		"/index.html":   7,
		"/pubs.html":    4,
		"/year/97.html": 2,
		"/missing.html": 1,
	}
	total := 0
	for path, n := range workload {
		for i := 0; i < n; i++ {
			if code, _ := get(t, srv, path); code != 200 && path != "/missing.html" {
				t.Fatalf("GET %s = %d", path, code)
			}
			total++
		}
	}

	code, body := get(t, srv, "/debug/ops?top=10")
	if code != 200 {
		t.Fatalf("/debug/ops = %d", code)
	}
	var snap OpsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("ops snapshot does not decode: %v\n%s", err, body)
	}
	if !snap.Ready {
		t.Error("snapshot should report ready with no Ready func")
	}
	if snap.Accounting == nil || snap.SLO == nil || snap.Tracing == nil {
		t.Fatalf("snapshot missing sections: %+v", snap)
	}
	// Exact per-page hit counts. /debug/ops itself is mounted outside
	// the accounting middleware, so the workload is the whole table.
	if snap.Accounting.TotalHits != uint64(total) {
		t.Errorf("total hits = %d, want %d", snap.Accounting.TotalHits, total)
	}
	seen := map[string]uint64{}
	for _, p := range snap.Accounting.Pages {
		seen[p.Path] = p.Hits
	}
	for path, n := range workload {
		if seen[path] != uint64(n) {
			t.Errorf("page %s hits = %d, want %d", path, seen[path], n)
		}
	}
	// The 404 page recorded its status but is not an error (5xx).
	for _, p := range snap.Accounting.Pages {
		if p.Path == "/missing.html" && (p.LastStatus != 404 || p.Errors != 0) {
			t.Errorf("missing row = %+v", p)
		}
	}
	// SLO saw every request; all were good (fast, no 5xx).
	if snap.SLO.Total != uint64(total) || snap.SLO.Good != uint64(total) {
		t.Errorf("SLO window = %+v, want %d good", snap.SLO, total)
	}
	// Tracing sampled 1 in 4.
	if snap.Tracing.Requests != uint64(total) || snap.Tracing.Sampled != uint64((total+3)/4) {
		t.Errorf("tracing = %+v, want %d requests, %d sampled", snap.Tracing, total, (total+3)/4)
	}
	if len(snap.InFlight) != 0 {
		t.Errorf("in-flight after workload = %+v, want empty", snap.InFlight)
	}
	// The access log carries one line per request.
	accessMu.Lock()
	lines := strings.Count(accessBuf.String(), "msg=access")
	accessMu.Unlock()
	if lines != total {
		t.Errorf("access log lines = %d, want %d", lines, total)
	}
	// ?top bound and validation.
	if code, body := get(t, srv, "/debug/ops?top=1"); code != 200 {
		t.Errorf("?top=1 = %d", code)
	} else {
		var s OpsSnapshot
		if err := json.Unmarshal([]byte(body), &s); err != nil || len(s.Accounting.Pages) != 1 {
			t.Errorf("?top=1 pages = %d, err %v", len(s.Accounting.Pages), err)
		}
	}
	if code, _ := get(t, srv, "/debug/ops?top=zero"); code != http.StatusBadRequest {
		t.Errorf("bad top = %d, want 400", code)
	}
}

func TestInflightTracking(t *testing.T) {
	reg := telemetry.NewRegistry()
	inflight := NewInflight()
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})
	srv := httptest.NewServer(InstrumentObserved(
		Observability{Registry: reg, Inflight: inflight}, "static", h))
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/slow.html")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	reqs := inflight.Snapshot(time.Now())
	if len(reqs) != 1 || reqs[0].Path != "/slow.html" || reqs[0].Method != "GET" {
		t.Errorf("in-flight = %+v", reqs)
	}
	if reqs[0].RequestID == "" {
		t.Error("in-flight request lost its correlation ID")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if inflight.Len() != 0 {
		t.Errorf("in-flight after completion = %d", inflight.Len())
	}
}

// TestRequestSpanReachesRenderer: a sampled request's trace contains
// the click-time render and page-query spans from the incremental
// layer — the spans threaded through the request context.
func TestRequestSpanReachesRenderer(t *testing.T) {
	rend := dynamicRenderer(t)
	tracer := telemetry.NewRequestTracer(1, 8) // trace every request
	reg := telemetry.NewRegistry()
	h := InstrumentObserved(Observability{Registry: reg, Tracer: tracer},
		"dynamic", DynamicEdge(func() *incremental.Renderer { return rend }, "Roots", EdgeConfig{}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	if code, _ := get(t, srv, "/"); code != 200 {
		t.Fatalf("root = %d", code)
	}
	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(recent))
	}
	var names []string
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		names = append(names, s.Name)
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(recent[0].Root())
	joined := strings.Join(names, "|")
	if !strings.Contains(joined, "render ") || !strings.Contains(joined, "page ") {
		t.Errorf("trace spans = %v, want render and page children", names)
	}
}

// lockedWriter serializes writes from concurrent request goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	sb *strings.Builder
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.Write(p)
}
