package mediator

import (
	"crypto/sha256"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/repository"
	"strudel/internal/resilience"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
	"strudel/internal/wrapper"
)

const peopleCSV = `id,name,dept
mff,Mary Fernandez,db
suciu,Dan Suciu,db
levy,Alon Levy,uw
`

const projectsTxt = `
id: strudel
name: STRUDEL
member_ref: strudel
synopsis: Web-site management
`

func TestRefreshMergesSources(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	if err := m.AddSource("people.csv", "csv", peopleCSV); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource("projects.txt", "structured", projectsTxt); err != nil {
		t.Fatal(err)
	}
	wh, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(wh.Collection("People")) != 3 {
		t.Errorf("People = %v", wh.Collection("People"))
	}
	if len(wh.Collection("Projects")) != 1 {
		t.Errorf("Projects = %v", wh.Collection("Projects"))
	}
	// Per-source graphs land in the repository too.
	if _, ok := repo.Graph("src:people.csv"); !ok {
		t.Error("source graph missing from repository")
	}
}

func TestGAVMapping(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	if err := m.AddSource("people.csv", "csv", peopleCSV); err != nil {
		t.Fatal(err)
	}
	// GAV: the mediated collection Researchers is defined by a query
	// over the source.
	q := struql.MustParse(`
INPUT people.csv
WHERE People(p), p -> "dept" -> "db"
CREATE Researcher(p)
LINK Researcher(p) -> "origin" -> p
COLLECT Researchers(Researcher(p))
`)
	if err := m.AddMapping(q); err != nil {
		t.Fatal(err)
	}
	wh, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rs := wh.Collection("Researchers")
	if len(rs) != 2 {
		t.Fatalf("Researchers = %v", rs)
	}
	// The mediated object links back to the source object, whose
	// attributes remain reachable (shared OID space).
	src, _ := repo.Graph("src:people.csv")
	for _, r := range rs {
		orig, ok := wh.First(r.OID(), "origin")
		if !ok {
			t.Fatal("origin missing")
		}
		if _, ok := src.First(orig.OID(), "name"); !ok {
			t.Error("source attributes unreachable")
		}
	}
}

func TestMappedModeKeepsSourceOut(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	m.AddSourceDynamic(&Source{
		Name:    "people.csv",
		Wrapper: w,
		Mode:    Mapped,
		Fetch:   func() (string, error) { return peopleCSV, nil },
	})
	q := struql.MustParse(`
INPUT people.csv
WHERE People(p), p -> "name" -> n
CREATE R(p)
LINK R(p) -> "name" -> n
COLLECT Rs(R(p))`)
	m.AddMapping(q)
	wh, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if wh.HasCollection("People") {
		t.Error("mapped source leaked into warehouse")
	}
	if len(wh.Collection("Rs")) != 3 {
		t.Errorf("Rs = %v", wh.Collection("Rs"))
	}
}

func TestRefreshPicksUpSourceChanges(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	content := "id,name\na,Alpha\n"
	w, _ := wrapper.ByName("csv")
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch:   func() (string, error) { return content, nil },
	})
	wh, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(wh.Collection("T")) != 1 {
		t.Fatalf("T = %v", wh.Collection("T"))
	}
	content = "id,name\na,Alpha\nb,Beta\n"
	wh, err = m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(wh.Collection("T")) != 2 {
		t.Errorf("after change T = %v", wh.Collection("T"))
	}
	if m.Refreshes != 2 {
		t.Errorf("Refreshes = %d", m.Refreshes)
	}
}

func TestRefreshIdempotentRebuild(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	m.AddSource("people.csv", "csv", peopleCSV)
	w1, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged bytes: the committed warehouse itself, not a rebuild.
	if w2 != w1 {
		t.Errorf("unchanged refresh rebuilt the warehouse:\n%s\nvs\n%s", w1.DumpString(), w2.DumpString())
	}
}

func TestErrors(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "W")
	if err := m.AddSource("x", "nosuchkind", ""); err == nil {
		t.Error("unknown wrapper kind should fail")
	}
	if err := m.AddMapping(struql.MustParse(`WHERE C(x) COLLECT D(x)`)); err == nil {
		t.Error("mapping without INPUT should fail")
	}
	m.AddMapping(struql.MustParse(`INPUT missing WHERE C(x) COLLECT D(x)`))
	if _, err := m.Refresh(); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("err = %v", err)
	}

	m2 := New(repository.New(""), "W")
	w, _ := wrapper.ByName("csv")
	m2.AddSourceDynamic(&Source{
		Name:    "bad",
		Wrapper: w,
		Fetch:   func() (string, error) { return "", errors.New("network down") },
	})
	if _, err := m2.Refresh(); err == nil || !strings.Contains(err.Error(), "network down") {
		t.Errorf("err = %v", err)
	}

	m3 := New(repository.New(""), "W")
	m3.AddSource("bad.csv", "csv", "") // empty CSV fails in wrapper
	if _, err := m3.Refresh(); err == nil || !strings.Contains(err.Error(), "wrapping source") {
		t.Errorf("err = %v", err)
	}
}

func TestWarehouseAccessor(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "W")
	if _, ok := m.Warehouse(); ok {
		t.Error("warehouse should not exist before refresh")
	}
	m.AddSource("p.csv", "csv", "id,x\na,1\n")
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	wh, ok := m.Warehouse()
	if !ok || wh.Name() != "W" {
		t.Errorf("warehouse = %v, %v", wh, ok)
	}
}

func TestCustomPredicateInMapping(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "W")
	m.AddSource("p.csv", "csv", "id,name\na,Ann\nb,Bo\n")
	m.Registry().RegisterObject("isShortName", func(v graph.Value) bool {
		s, ok := v.AsString()
		return ok && len(s) <= 2
	})
	m.AddMapping(struql.MustParse(`
INPUT p.csv
WHERE P(p), p -> "name" -> n, isShortName(n)
COLLECT Short(p)`))
	wh, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(wh.Collection("Short")) != 1 {
		t.Errorf("Short = %v", wh.Collection("Short"))
	}
}

func TestVirtualQuerySeesCurrentSources(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "W")
	content := "id,name\na,Alpha\n"
	w, _ := wrapper.ByName("csv")
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch:   func() (string, error) { return content, nil },
	})
	q := struql.MustParse(`WHERE T(x) COLLECT Out(x)`)
	res, err := m.VirtualQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Collection("Out")) != 1 {
		t.Fatalf("Out = %v", res.Output.Collection("Out"))
	}
	// The source changes; a virtual query sees it with no Refresh.
	content = "id,name\na,Alpha\nb,Beta\n"
	res, err = m.VirtualQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Collection("Out")) != 2 {
		t.Errorf("after change Out = %v", res.Output.Collection("Out"))
	}
	// No warehouse was materialized.
	if _, ok := m.Warehouse(); ok {
		t.Error("virtual query must not materialize the warehouse")
	}
}

func TestVirtualQueryPrunesMappedSources(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "W")
	w, _ := wrapper.ByName("csv")
	fetchedB := 0
	m.AddSourceDynamic(&Source{
		Name: "a.csv", Wrapper: w, Mode: Mapped,
		Fetch: func() (string, error) { return "id,x\na1,1\n", nil },
	})
	m.AddSourceDynamic(&Source{
		Name: "b.csv", Wrapper: w, Mode: Mapped,
		Fetch: func() (string, error) {
			fetchedB++
			return "id,x\nb1,1\n", nil
		},
	})
	m.AddMapping(struql.MustParse(`INPUT a.csv WHERE A(p) COLLECT FromA(p)`))
	m.AddMapping(struql.MustParse(`INPUT b.csv WHERE B(p) COLLECT FromB(p)`))
	// A query needing only FromA must not fetch b.csv.
	res, err := m.VirtualQuery(struql.MustParse(`WHERE FromA(x) COLLECT Out(x)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Collection("Out")) != 1 {
		t.Errorf("Out = %v", res.Output.Collection("Out"))
	}
	if fetchedB != 0 {
		t.Errorf("b.csv fetched %d times; source pruning broken", fetchedB)
	}
	// A query needing FromB fetches it.
	if _, err := m.VirtualQuery(struql.MustParse(`WHERE FromB(x) COLLECT Out(x)`)); err != nil {
		t.Fatal(err)
	}
	if fetchedB != 1 {
		t.Errorf("b.csv fetched %d times, want 1", fetchedB)
	}
}

func TestVirtualQueryNoRelevantSource(t *testing.T) {
	m := New(repository.New(""), "W")
	w, _ := wrapper.ByName("csv")
	m.AddSourceDynamic(&Source{
		Name: "a.csv", Wrapper: w, Mode: Mapped,
		Fetch: func() (string, error) { return "id,x\na1,1\n", nil },
	})
	if _, err := m.VirtualQuery(struql.MustParse(`WHERE Nowhere(x) COLLECT Out(x)`)); err == nil {
		t.Error("expected error for unknown mediated collection")
	}
}

// TestRefreshKeepsLastGoodOnSourceFailure is the regression test for
// the partial-state bug: a failing second source used to leave src:*
// graphs dropped and the warehouse partially rebuilt. Now the refresh
// degrades to the source's last-good graph and commits a complete
// warehouse atomically.
func TestRefreshKeepsLastGoodOnSourceFailure(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	bContent, bErr := "id,x\nb1,1\nb2,2\n", error(nil)
	m.AddSource("a.csv", "csv", "id,x\na1,1\n")
	m.AddSourceDynamic(&Source{
		Name:    "b.csv",
		Wrapper: w,
		Fetch:   func() (string, error) { return bContent, bErr },
	})
	wh, report, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("first refresh not ok: %s", report.Summary())
	}
	if got := len(wh.Collection("B")); got != 2 {
		t.Fatalf("B = %d", got)
	}

	// The second source starts failing; a refresh must neither error
	// nor drop anything.
	bErr = errors.New("network down")
	wh2, report2, err := m.RefreshWithReport()
	if err != nil {
		t.Fatalf("degraded refresh errored: %v", err)
	}
	if degr := report2.Degraded(); len(degr) != 1 || degr[0] != "b.csv" {
		t.Errorf("degraded = %v", degr)
	}
	if st, _ := report2.Source("b.csv"); st.State != Degraded || st.StaleSince.IsZero() || st.Err == nil {
		t.Errorf("b.csv status = %+v", st)
	}
	if st, _ := report2.Source("a.csv"); st.State != Fresh {
		t.Errorf("a.csv status = %+v", st)
	}
	// Both src:* graphs are still registered and queryable.
	for _, name := range []string{"src:a.csv", "src:b.csv"} {
		if _, ok := repo.Graph(name); !ok {
			t.Errorf("%s dropped from repository", name)
		}
	}
	// The new warehouse still integrates b's last-good data.
	if got := len(wh2.Collection("B")); got != 2 {
		t.Errorf("warehouse lost degraded source data: B = %d", got)
	}
	if got := len(wh2.Collection("A")); got != 1 {
		t.Errorf("A = %d", got)
	}
	if m.Refreshes != 2 {
		t.Errorf("Refreshes = %d", m.Refreshes)
	}

	// Recovery: the source comes back, staleness clears.
	bErr = nil
	bContent = "id,x\nb1,1\nb2,2\nb3,3\n"
	wh3, report3, err := m.RefreshWithReport()
	if err != nil || !report3.Ok() {
		t.Fatalf("recovery refresh: %v %s", err, report3.Summary())
	}
	if got := len(wh3.Collection("B")); got != 3 {
		t.Errorf("after recovery B = %d", got)
	}
	if st, _ := report3.Source("b.csv"); !st.StaleSince.IsZero() {
		t.Errorf("stale-since not cleared: %+v", st)
	}
}

// TestRefreshAtomicOnFirstFailure: with no last-good copy to fall back
// on, a failing source aborts the refresh — and stages nothing: no
// src:* graphs, no warehouse, no partial state.
func TestRefreshAtomicOnFirstFailure(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	m.AddSource("a.csv", "csv", "id,x\na1,1\n")
	m.AddSourceDynamic(&Source{
		Name:    "b.csv",
		Wrapper: w,
		Fetch:   func() (string, error) { return "", errors.New("down") },
	})
	_, report, err := m.RefreshWithReport()
	if err == nil {
		t.Fatal("expected hard error with no last-good copy")
	}
	if !report.Failed() {
		t.Errorf("report = %s", report.Summary())
	}
	for _, name := range []string{"src:a.csv", "src:b.csv", "DataGraph"} {
		if _, ok := repo.Graph(name); ok {
			t.Errorf("%s committed despite aborted refresh", name)
		}
	}
	if m.Refreshes != 0 {
		t.Errorf("Refreshes = %d", m.Refreshes)
	}
	if m.LastReport() != report {
		t.Error("LastReport not recorded")
	}
}

// TestRefreshRetriesWithInjectedClock drives the retry schedule with
// an auto-advancing fake clock: no real sleeps, deterministic backoff.
func TestRefreshRetriesWithInjectedClock(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	calls := 0
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch: func() (string, error) {
			calls++
			if calls < 3 {
				return "", errors.New("transient")
			}
			return "id,x\na,1\n", nil
		},
	})
	clock := resilience.NewAutoClock(time.Date(1997, 5, 1, 0, 0, 0, 0, time.UTC))
	m.SetResilience(Resilience{
		Retry: resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: 250 * time.Millisecond},
		Clock: clock,
	})
	_, report, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := report.Source("t.csv")
	if st.State != Fresh || st.Attempts != 3 {
		t.Errorf("status = %+v", st)
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 250*time.Millisecond || sleeps[1] != 500*time.Millisecond {
		t.Errorf("backoff schedule = %v", sleeps)
	}
}

// TestRefreshBreakerSkipsDeadSource: after the breaker opens, refreshes
// stop calling Fetch entirely and serve last-good data until the
// cooldown admits a probe.
func TestRefreshBreakerSkipsDeadSource(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	calls, fail := 0, false
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch: func() (string, error) {
			calls++
			if fail {
				return "", errors.New("down")
			}
			return "id,x\na,1\n", nil
		},
	})
	clock := resilience.NewFakeClock(time.Date(1997, 5, 1, 0, 0, 0, 0, time.UTC))
	m.SetResilience(Resilience{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Clock:            clock,
	})
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	fail = true
	// This refresh fails the fetch and opens the breaker.
	if _, report, err := m.RefreshWithReport(); err != nil || len(report.Degraded()) != 1 {
		t.Fatalf("err=%v report=%s", err, report.Summary())
	}
	callsAfterOpen := calls
	// Breaker open: degraded without even calling Fetch.
	_, report, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if calls != callsAfterOpen {
		t.Errorf("open breaker still fetched (calls %d -> %d)", callsAfterOpen, calls)
	}
	if st, _ := report.Source("t.csv"); st.State != Degraded || st.Attempts != 0 || !errors.Is(st.Err, resilience.ErrBreakerOpen) {
		t.Errorf("status = %+v", st)
	}
	// After the cooldown the probe goes through; the source recovered.
	fail = false
	clock.Advance(2 * time.Minute)
	_, report, err = m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := report.Source("t.csv"); st.State != Fresh {
		t.Errorf("post-cooldown status = %+v", st)
	}
	if calls != callsAfterOpen+1 {
		t.Errorf("probe calls = %d, want %d", calls, callsAfterOpen+1)
	}
}

// TestRefreshHangingFetchTimesOut bounds a hanging source with the
// fetch deadline and falls back to last-good data.
func TestRefreshHangingFetchTimesOut(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	hang := make(chan struct{})
	defer close(hang)
	hanging := false
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch: func() (string, error) {
			if hanging {
				<-hang
			}
			return "id,x\na,1\n", nil
		},
	})
	m.SetResilience(Resilience{FetchTimeout: 5 * time.Millisecond})
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	hanging = true
	_, report, err := m.RefreshWithReport()
	if err != nil {
		t.Fatalf("hanging source aborted refresh: %v", err)
	}
	st, _ := report.Source("t.csv")
	if st.State != Degraded || !errors.Is(st.Err, resilience.ErrTimeout) {
		t.Errorf("status = %+v", st)
	}
}

// TestRefreshAbandonedFetchDoesNotRace: a fetch attempt that outlives
// its deadline is abandoned but stays alive; if it completes during
// the retry attempt, its result must neither race with nor replace the
// retry's freshly fetched content. Run under -race this pins the fix
// for writing fetch results into a variable shared across attempts.
func TestRefreshAbandonedFetchDoesNotRace(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	var calls atomic.Int32
	release := make(chan struct{})
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch: func() (string, error) {
			if calls.Add(1) == 1 {
				// First attempt: hang past the deadline, then complete
				// with outdated content while the retry is committing.
				<-release
				return "id,x\nstale,0\n", nil
			}
			close(release)
			return "id,x\nfresh,1\n", nil
		},
	})
	m.SetResilience(Resilience{
		Retry:        resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		FetchTimeout: 20 * time.Millisecond,
	})
	wh, report, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := report.Source("t.csv"); st.State != Fresh || st.Attempts != 2 {
		t.Fatalf("status = %+v", st)
	}
	if _, ok := wh.NodeByName("fresh"); !ok {
		t.Errorf("warehouse missing the retry's content:\n%s", wh.DumpString())
	}
	if _, ok := wh.NodeByName("stale"); ok {
		t.Errorf("abandoned attempt's content leaked into the warehouse:\n%s", wh.DumpString())
	}
}

// TestLastReportNotBlockedDuringSlowRefresh: reading the last report
// (and reconfiguring) must not wait behind an in-flight refresh stuck
// in a slow fetch.
func TestLastReportNotBlockedDuringSlowRefresh(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	w, _ := wrapper.ByName("csv")
	inFetch := make(chan struct{}, 1)
	release := make(chan struct{})
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch: func() (string, error) {
			inFetch <- struct{}{}
			<-release
			return "id,x\na,1\n", nil
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := m.Refresh()
		done <- err
	}()
	<-inFetch // the refresh is now blocked inside Fetch
	got := make(chan *RefreshReport, 1)
	go func() { got <- m.LastReport() }()
	select {
	case rep := <-got:
		if rep != nil {
			t.Errorf("report before first refresh = %+v", rep)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("LastReport blocked behind the in-flight refresh")
	}
	// Reconfiguration must not block either; it applies next refresh.
	m.SetResilience(Resilience{})
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.LastReport() == nil || !m.LastReport().Ok() {
		t.Errorf("report after refresh = %+v", m.LastReport())
	}
}

// TestRefreshTelemetry checks the refresh outcome counters and the
// degraded-sources gauge.
func TestRefreshTelemetry(t *testing.T) {
	repo := repository.New("")
	m := New(repo, "DataGraph")
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	w, _ := wrapper.ByName("csv")
	var fetchErr error
	m.AddSourceDynamic(&Source{
		Name:    "t.csv",
		Wrapper: w,
		Fetch:   func() (string, error) { return "id,x\na,1\n", fetchErr },
	})
	m.SetResilience(Resilience{Retry: resilience.RetryPolicy{MaxAttempts: 2},
		Clock: resilience.NewAutoClock(time.Now())})
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	fetchErr = errors.New("down")
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`strudel_mediator_refresh_total{result="ok"} 1`,
		`strudel_mediator_refresh_total{result="degraded"} 1`,
		`strudel_mediator_degraded_sources 1`,
		`strudel_mediator_fetch_retries_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestSumStringMatchesSHA256: the buffered source hash is SHA-256,
// across the buffer's boundaries.
func TestSumStringMatchesSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 8<<10 - 1, 8 << 10, 8<<10 + 1, 100_000} {
		s := strings.Repeat("strudel", n/7+1)[:n]
		if got, want := sumString(s), sha256.Sum256([]byte(s)); got != want {
			t.Errorf("len %d: sumString = %x, want %x", n, got, want)
		}
	}
}
