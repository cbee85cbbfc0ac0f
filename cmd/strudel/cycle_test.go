// Unit tests of the serve refresh cycle, driven directly rather than
// through newServing: the mediator and the cycle run on fake clocks,
// and the publisher and the build ledger each write through their own
// fault-injecting filesystem.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"strudel/internal/core"
	"strudel/internal/fsx"
	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/publish"
	"strudel/internal/resilience"
	"strudel/internal/schema"
	"strudel/internal/server"
	"strudel/internal/telemetry"
)

var cycleEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// cycleRig is one cycle over the test site of writeTestSite.
type cycleRig struct {
	t      *testing.T
	dir    string
	m      *manifest
	c      *cycle
	pubFS  *fsx.FaultFS
	pubDir string // "" in dynamic mode
	led    *ledger.Ledger
	logs   *syncBuffer
}

// newCycleRig wires a cycle the way newServing does, except that
// clock drives both the mediator and the cycle, and the filesystem
// under the publisher (static mode) and the ledger is a FaultFS.
func newCycleRig(t *testing.T, dynamic bool, clock *resilience.FakeClock) *cycleRig {
	t.Helper()
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	m.builder.SetResilience(mediator.Resilience{Clock: clock})
	r := &cycleRig{t: t, dir: dir, m: m, pubFS: fsx.NewFaultFS(fsx.OS), logs: &syncBuffer{}}
	r.led, err = ledger.Open(ledger.Options{FS: fsx.NewFaultFS(fsx.OS), Dir: filepath.Join(dir, "ledger")})
	if err != nil {
		t.Fatal(err)
	}
	mode := "dynamic"
	var pub *publish.Publisher
	if !dynamic {
		mode = "static"
		r.pubDir = filepath.Join(dir, "pub")
		pub = publish.New(r.pubFS, r.pubDir, 3)
	}
	cfg := server.EdgeConfig{Mode: mode, Registry: telemetry.NewRegistry()}
	r.c = newCycle(m, dynamic, cfg, pub, r.led, ledger.NewWatchdog(ledger.WatchdogConfig{}),
		clock, telemetry.NewLogger(r.logs))
	return r
}

func (r *cycleRig) step(trigger string) {
	r.t.Helper()
	if err := r.c.step(trigger); err != nil {
		r.t.Fatalf("%s step: %v", trigger, err)
	}
}

// edit rewrites refs.bib, replacing old with new.
func (r *cycleRig) edit(old, new string) {
	r.t.Helper()
	bib := filepath.Join(r.dir, "refs.bib")
	data, err := os.ReadFile(bib)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := os.WriteFile(bib, []byte(strings.ReplaceAll(string(data), old, new)), 0o644); err != nil {
		r.t.Fatal(err)
	}
}

// get serves one GET from the cycle's edge and returns body and ETag.
func (r *cycleRig) get(path string) (string, string) {
	r.t.Helper()
	rec := httptest.NewRecorder()
	r.c.edge.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		r.t.Fatalf("GET %s = %d %q", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String(), rec.Header().Get("ETag")
}

// current names the committed generation.
func (r *cycleRig) current() string {
	r.t.Helper()
	gdir, err := publish.Current(nil, r.pubDir)
	if err != nil {
		r.t.Fatal(err)
	}
	return filepath.Base(gdir)
}

// newest is the ledger's latest entry.
func (r *cycleRig) newest() ledger.Entry {
	r.t.Helper()
	e, ok := r.led.Last()
	if !ok {
		r.t.Fatal("ledger is empty")
	}
	return e
}

// assertServesScratchBuild checks that the edge serves every page of a
// from-scratch build of the current sources, bytes and tag, and that
// the committed generation holds exactly those pages.
func (r *cycleRig) assertServesScratchBuild() {
	r.t.Helper()
	m, err := loadManifest(filepath.Join(r.dir, "site.manifest"))
	if err != nil {
		r.t.Fatal(err)
	}
	want, err := m.builder.Build()
	if err != nil {
		r.t.Fatal(err)
	}
	for path, pg := range want.Site.Pages {
		if body, tag := r.get("/" + path); body != pg.HTML || tag != pg.ETag {
			r.t.Errorf("/%s serves %q (tag %s), from-scratch build has %q (tag %s)", path, body, tag, pg.HTML, pg.ETag)
		}
	}
	site, _, err := publish.OpenSite(nil, r.pubDir)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(site.Pages) != len(want.Site.Pages) {
		r.t.Errorf("committed generation has %d pages, want %d", len(site.Pages), len(want.Site.Pages))
	}
	for path, pg := range want.Site.Pages {
		if got := site.Pages[path]; got == nil || got.HTML != pg.HTML {
			r.t.Errorf("committed %s differs from the from-scratch build", path)
		}
	}
}

// TestCycleFailedPublishSweep fails each mutating filesystem op of one
// interval publish in turn with EIO. A step whose publish fails
// reports it and changes nothing anyone can see: the edge keeps the
// old bytes and tags, CURRENT and the served build ID stay put, and
// the newest ledger entry carries the publish error. Ops whose failure
// the publisher tolerates (best-effort cleanup) must not fail the
// step. Either way, the next fault-free step serves exactly what a
// from-scratch build of the edited sources renders.
func TestCycleFailedPublishSweep(t *testing.T) {
	probe := newCycleRig(t, false, resilience.NewFakeClock(cycleEpoch))
	probe.step("initial")
	base := probe.pubFS.Ops()
	probe.edit("Alpha", "Gamma")
	probe.step("interval")
	ops := probe.pubFS.Ops() - base
	if ops == 0 {
		t.Fatal("interval step published nothing")
	}

	failed := 0
	for n := 0; n < ops; n++ {
		r := newCycleRig(t, false, resilience.NewFakeClock(cycleEpoch))
		r.step("initial")
		oldBody, oldTag := r.get("/")
		oldGen, oldID := r.current(), r.c.served.Load().id
		r.edit("Alpha", "Gamma")
		op := r.pubFS.Ops() + n
		r.pubFS.FailAt(op, syscall.EIO)
		if err := r.c.step("interval"); err != nil {
			failed++
			if body, tag := r.get("/"); body != oldBody || tag != oldTag {
				t.Errorf("op %d: edge moved to an uncommitted build: %q (tag %s)", op, body, tag)
			}
			if gen, id := r.current(), r.c.served.Load().id; gen != oldGen || id != oldID {
				t.Errorf("op %d: CURRENT %s / build %s, want %s / %s", op, gen, id, oldGen, oldID)
			}
			if e := r.newest(); !strings.HasPrefix(e.Err, "publish: ") {
				t.Errorf("op %d: newest ledger entry err = %q, want the publish failure", op, e.Err)
			}
		} else if body, _ := r.get("/"); !strings.Contains(body, "Gamma") {
			t.Errorf("op %d: tolerated fault, but the edit is not served: %q", op, body)
		}
		r.step("interval")
		r.assertServesScratchBuild()
		if t.Failed() {
			t.Fatalf("op %d journal:\n%s", op, strings.Join(r.pubFS.Journal(), "\n"))
		}
	}
	if failed == 0 {
		t.Fatal("no failed op failed the step")
	}
}

// TestCycleFreshnessPropagation: the freshness stamp of a changed
// interval step is exactly the fake time that passed between the
// mediator observing the edit and the edge swapping it in (here, one
// slow source), and data-as-of is the observation — in both modes.
func TestCycleFreshnessPropagation(t *testing.T) {
	const slow = 250 * time.Millisecond
	for _, dynamic := range []bool{false, true} {
		clock := resilience.NewFakeClock(cycleEpoch)
		r := newCycleRig(t, dynamic, clock)
		err := r.m.builder.AddSourceFunc("slow.bib", "bibtex", func() (string, error) {
			clock.Advance(slow)
			return "", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		r.step("initial")
		if e := r.newest(); e.Freshness != nil {
			t.Errorf("dynamic=%v: initial build stamped freshness %+v", dynamic, e.Freshness)
		}
		r.edit("Alpha", "Gamma")
		observed := clock.Now()
		r.step("interval")
		f := r.newest().Freshness
		if f == nil {
			t.Fatalf("dynamic=%v: changed step not stamped", dynamic)
		}
		if !f.ObservedAt.Equal(observed) || !f.ServableAt.Equal(observed.Add(slow)) || f.PropagationSeconds != slow.Seconds() {
			t.Errorf("dynamic=%v: freshness %+v, want %v → %v (%v)", dynamic, f, observed, observed.Add(slow), slow)
		}
		if got := r.c.served.Load().dataAsOf; !got.Equal(observed) {
			t.Errorf("dynamic=%v: data as of %v, want the observation %v", dynamic, got, observed)
		}
	}
}

// TestCycleRunBacksOff: run on an auto-advancing clock against a
// source that is down from the start (no last-good data, so every
// step fails) doubles its delay per failure up to 10× the interval,
// and returns to the interval once a step succeeds.
func TestCycleRunBacksOff(t *testing.T) {
	clock := resilience.NewAutoClock(cycleEpoch)
	r := newCycleRig(t, false, clock)
	stop := make(chan struct{})
	fetches := 0
	err := r.m.builder.AddSourceFunc("flaky.bib", "bibtex", func() (string, error) {
		fetches++
		switch {
		case fetches <= 5:
			return "", errors.New("source down")
		case fetches == 7:
			close(stop)
		}
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const interval = time.Minute
	r.c.run(interval, stop)
	want := []time.Duration{1, 2, 4, 8, 10, 10, 1}
	got := clock.Sleeps()
	if len(got) < len(want) {
		t.Fatalf("sleeps = %v, want prefix %v intervals", got, want)
	}
	for i, k := range want {
		if got[i] != k*interval {
			t.Fatalf("sleeps = %v, want prefix %v intervals", got, want)
		}
	}
	entries := r.led.Entries(ledger.Filter{})
	for _, e := range entries[len(entries)-5:] { // newest first: the oldest five
		if e.Mode != "failed" || !strings.Contains(e.Err, "source down") {
			t.Errorf("entry %d = %s %q, want a failed step", e.Seq, e.Mode, e.Err)
		}
	}
}

// TestCycleLogsNewViolations: an interval step whose rebuild
// introduces a constraint violation logs it with the build's ID; a
// later step that changes nothing does not repeat it.
func TestCycleLogsNewViolations(t *testing.T) {
	r := newCycleRig(t, false, resilience.NewFakeClock(cycleEpoch))
	r.m.builder.AddConstraint(schema.MustLink{From: "RootPage", Label: "Paper", To: "PaperPage"})
	r.step("initial")
	if logged := r.logs.String(); strings.Contains(logged, "constraint violation") {
		t.Fatalf("initial build logged a violation:\n%s", logged)
	}
	// With no publications left, the root page links to no paper.
	if err := os.WriteFile(filepath.Join(r.dir, "refs.bib"), []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r.step("interval")
	id := r.c.served.Load().id
	if n := strings.Count(r.logs.String(), "constraint violation"); n != 1 ||
		!strings.Contains(r.logs.String(), "build_id="+id) {
		t.Fatalf("violations logged %d times, want once for build %s:\n%s", n, id, r.logs.String())
	}
	r.step("interval")
	if n := strings.Count(r.logs.String(), "constraint violation"); n != 1 {
		t.Errorf("noop step re-logged the violation (%d lines)", n)
	}
}

// TestCycleStepsUnderLoad: steps that change the site swap it in while
// clients keep requesting pages, build IDs and staleness, in both
// modes; run under -race it checks the cycle's snapshot handoff.
func TestCycleStepsUnderLoad(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		dir := writeTestSite(t)
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		h, c, err := newServing(m, serveOptions{dynamic: dynamic, reg: telemetry.NewRegistry(),
			ops: true, hotPages: 2, logg: discardLogger()})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					path := []string{"/", "/debug/ops"}[n%2]
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("dynamic=%v: GET %s = %d", dynamic, path, rec.Code)
						return
					}
				}
			}()
		}
		bib := filepath.Join(dir, "refs.bib")
		orig, err := os.ReadFile(bib)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			edited := strings.ReplaceAll(string(orig), "Alpha", "Alpha"+strings.Repeat("!", i+1))
			if err := os.WriteFile(bib, []byte(edited), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.step("interval"); err != nil {
				t.Fatalf("dynamic=%v: refresh %d: %v", dynamic, i, err)
			}
		}
		close(stop)
		wg.Wait()
	}
}

// TestCycleDebugEvaluationsDuringSteps: /debug/provenance and
// /debug/explain re-run the queries over the served data while steps
// swap edits in, on the optimizing test manifest. Run under -race it
// checks that a debug evaluation shares nothing unsynchronized with a
// rebuild. Every answer is 200 and matches some build that was served.
func TestCycleDebugEvaluationsDuringSteps(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	h, c, err := newServing(m, serveOptions{reg: telemetry.NewRegistry(), logg: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	served := []*core.Result{c.res.Load()}
	paths := []string{"/debug/provenance?page=index.html", "/debug/explain"}
	answers := make([][]string, len(paths))
	// A reader hands off on progress[i] after each answer, whenever the
	// test is waiting for one.
	progress := []chan struct{}{make(chan struct{}), make(chan struct{})}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("GET %s = %d %q", path, rec.Code, rec.Body.String())
				} else {
					answers[i] = append(answers[i], rec.Body.String())
				}
				select {
				case progress[i] <- struct{}{}:
				default:
				}
			}
		}()
	}
	// Each edit retitles a paper and adds one, so the served builds
	// differ in their provenance tuples and their data-graph size.
	bib := filepath.Join(dir, "refs.bib")
	orig, err := os.ReadFile(bib)
	if err != nil {
		t.Fatal(err)
	}
	edited := string(orig)
	for i := 1; i <= 4; i++ {
		edited = strings.ReplaceAll(edited, "Alpha", "Alpha!") +
			fmt.Sprintf("@article{q%d, title = {Extra %d}, author = {Cy}, year = 1999, category = {Z}}\n", i, i)
		if err := os.WriteFile(bib, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := c.step("interval"); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		served = append(served, c.res.Load())
	}
	for i := range paths {
		<-progress[i]
	}
	close(stop)
	wg.Wait()

	canonical := func(v any) string {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var generic any
		if err := json.Unmarshal(raw, &generic); err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(generic)
		return string(out)
	}
	provenance, explain := map[string]bool{}, map[[3]int]bool{}
	for _, res := range served {
		prov, err := m.builder.Provenance(res)
		if err != nil {
			t.Fatal(err)
		}
		pp, ok := prov.Page("index.html")
		if !ok {
			t.Fatal("served build has no index.html")
		}
		provenance[canonical(pp)] = true
		explain[[3]int{res.Stats.DataNodes, res.Stats.DataEdges, res.Stats.Bindings}] = true
	}
	if len(provenance) != len(served) {
		t.Fatalf("%d served builds have %d distinct provenance records", len(served), len(provenance))
	}
	for _, body := range answers[0] {
		var generic any
		if err := json.Unmarshal([]byte(body), &generic); err != nil {
			t.Fatalf("provenance answer is not JSON: %v", err)
		}
		if !provenance[canonical(generic)] {
			t.Fatalf("provenance answer matches no served build:\n%s", body)
		}
	}
	for _, body := range answers[1] {
		var ex core.Explain
		if err := json.Unmarshal([]byte(body), &ex); err != nil {
			t.Fatalf("explain answer is not JSON: %v", err)
		}
		if !ex.Optimizer || len(ex.Queries) != 1 || !explain[[3]int{ex.DataNodes, ex.DataEdges, ex.Queries[0].Bindings}] {
			t.Fatalf("explain answer matches no served build: %d nodes, %d edges, %+v", ex.DataNodes, ex.DataEdges, ex.Queries)
		}
	}
	t.Logf("%d builds served; checked %d provenance and %d explain answers", len(served), len(answers[0]), len(answers[1]))
}
