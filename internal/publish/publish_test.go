package publish

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"strudel/internal/fsx"
)

var (
	siteV1 = map[string]string{
		"index.html": "<html>home v1</html>",
		"a.html":     "<html>alpha v1</html>",
		"b.html":     "<html>beta v1</html>",
	}
	siteV2 = map[string]string{
		"index.html": "<html>home v2</html>",
		"a.html":     "<html>alpha v2</html>",
		"c.html":     "<html>gamma v2</html>", // b.html dropped, c.html added
	}
)

// pagesOf flattens an opened site back to path → content for equality
// checks against the published file maps.
func pagesOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	site, m, err := OpenSite(fsx.OS, dir)
	if err != nil {
		t.Fatalf("OpenSite: %v", err)
	}
	if m.Pages != len(site.Pages) {
		t.Fatalf("manifest pages %d != %d loaded", m.Pages, len(site.Pages))
	}
	out := map[string]string{}
	for path, p := range site.Pages {
		out[path] = p.HTML
	}
	return out
}

func sameSite(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestPublishAndOpenSite(t *testing.T) {
	dir := t.TempDir()
	p := New(fsx.OS, dir, 2)
	gen, err := p.Publish(siteV1, "build-1", time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("first generation = %d, want 0", gen)
	}
	cur, err := Current(fsx.OS, dir)
	if err != nil || filepath.Base(cur) != "gen-0" {
		t.Fatalf("Current = %q, %v", cur, err)
	}
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("opened site differs: %v", got)
	}
	rep, err := Verify(fsx.OS, dir)
	if err != nil || !rep.OK() {
		t.Fatalf("Verify: %v\n%s", err, rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "gen-0") {
		t.Fatalf("summary misses generation: %s", rep.Summary())
	}
}

func TestPublishGenerationsAndPrune(t *testing.T) {
	dir := t.TempDir()
	p := New(fsx.OS, dir, 2)
	for i := 0; i < 4; i++ {
		files := map[string]string{"index.html": fmt.Sprintf("v%d", i)}
		if _, err := p.Publish(files, "", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Verify(fsx.OS, dir)
	if err != nil || !rep.OK() {
		t.Fatalf("Verify: %v\n%s", err, rep.Summary())
	}
	if rep.Current != "gen-3" {
		t.Fatalf("current = %s, want gen-3", rep.Current)
	}
	if len(rep.Generations) != 2 || rep.Generations[0].Name != "gen-2" {
		t.Fatalf("retention window wrong: %s", rep.Summary())
	}
	if got := pagesOf(t, dir)["index.html"]; got != "v3" {
		t.Fatalf("serving %q, want v3", got)
	}
}

func TestPublishRejectsBadPagePaths(t *testing.T) {
	p := New(fsx.OS, t.TempDir(), 2)
	for _, path := range []string{"", "MANIFEST.json", "CURRENT", "sub/page.html", "..", "x.tmp"} {
		if _, err := p.Publish(map[string]string{path: "x"}, "", time.Time{}); err == nil {
			t.Errorf("path %q accepted", path)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	p := New(fsx.OS, dir, 2)
	if _, err := p.Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	page := filepath.Join(dir, "gen-0", "a.html")
	data, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01 // flip one byte
	if err := os.WriteFile(page, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("flipped byte not detected:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "a.html: content hash mismatch") {
		t.Fatalf("report does not name the corrupt page:\n%s", rep.Summary())
	}
	if _, _, err := OpenSite(fsx.OS, dir); err == nil {
		t.Fatal("OpenSite served a corrupt generation")
	}

	// An extra file the manifest does not vouch for is also flagged.
	if err := os.WriteFile(filepath.Join(dir, "gen-0", "stray.html"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, _ = Verify(fsx.OS, dir)
	if !strings.Contains(rep.Summary(), "stray.html: not in manifest") {
		t.Fatalf("stray file not flagged:\n%s", rep.Summary())
	}
}

func TestRecoverRemovesTornAndUncommitted(t *testing.T) {
	dir := t.TempDir()
	p := New(fsx.OS, dir, 4)
	if _, err := p.Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	// A torn generation: directory without a manifest.
	if err := os.MkdirAll(filepath.Join(dir, "gen-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "gen-1", "index.html"), []byte("half"), 0o644)
	// A complete but never-committed generation above CURRENT.
	if _, err := New(fsx.OS, filepath.Join(dir), 4).Publish(siteV2, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Roll CURRENT back to gen-0 to simulate dying before the commit.
	if err := fsx.WriteFileDurable(fsx.OS, filepath.Join(dir, CurrentName), []byte("gen-0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Staging debris.
	os.MkdirAll(filepath.Join(dir, "gen-9.tmp"), 0o755)

	rep, err := Recover(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Current != "gen-0" || rep.Repointed {
		t.Fatalf("recover = %+v, want committed gen-0 untouched", rep)
	}
	if len(rep.Removed) != 3 { // gen-1 (torn), gen-2 (uncommitted), gen-9.tmp
		t.Fatalf("removed %v", rep.Removed)
	}
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("recovered site differs from old: %v", got)
	}
	v, _ := Verify(fsx.OS, dir)
	if !v.OK() {
		t.Fatalf("recovered dir not clean:\n%s", v.Summary())
	}
}

func TestRecoverRepointsDanglingCurrent(t *testing.T) {
	dir := t.TempDir()
	p := New(fsx.OS, dir, 4)
	for _, files := range []map[string]string{siteV1, siteV2} {
		if _, err := p.Publish(files, "", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest generation; CURRENT now dangles on a torn gen.
	if err := os.Remove(filepath.Join(dir, "gen-1", ManifestName)); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Current != "gen-0" || !rep.Repointed {
		t.Fatalf("recover = %+v, want repointed to gen-0", rep)
	}
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("fallback site differs: %v", got)
	}
}

func TestRecoverNoGeneration(t *testing.T) {
	dir := t.TempDir()
	if _, err := Recover(fsx.OS, dir); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("err = %v, want ErrNoGeneration", err)
	}
}

// TestCrashSweep is the package-local sweep: publish v1, then crash a
// v2 publication at every mutating-operation boundary, recover, and
// require the recovered directory to serve exactly v1 or exactly v2.
// The full-scale sweep over real example sites lives in the repo root
// crash suite.
func TestCrashSweep(t *testing.T) {
	// Probe: count the fault-free operation total.
	probeDir := t.TempDir()
	if _, err := New(fsx.OS, probeDir, 2).Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	probe := fsx.NewFaultFS(fsx.OS)
	if _, err := New(probe, probeDir, 2).Publish(siteV2, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few ops (%d); is the durability discipline gone?", total)
	}

	for k := 0; k <= total; k++ {
		dir := t.TempDir()
		if _, err := New(fsx.OS, dir, 2).Publish(siteV1, "", time.Time{}); err != nil {
			t.Fatal(err)
		}
		fault := fsx.NewFaultFS(fsx.OS)
		fault.CrashAt(k)
		gen, perr := New(fault, dir, 2).Publish(siteV2, "", time.Time{})
		_ = gen

		// Reboot: recover over the real filesystem.
		if _, err := Recover(fsx.OS, dir); err != nil {
			t.Fatalf("crash at op %d: recover: %v\njournal:\n%s", k, err, strings.Join(fault.Journal(), "\n"))
		}
		got := pagesOf(t, dir)
		switch {
		case sameSite(got, siteV1), sameSite(got, siteV2):
		default:
			t.Fatalf("crash at op %d: recovered site is a MIX: %v\njournal:\n%s",
				k, got, strings.Join(fault.Journal(), "\n"))
		}
		if !fault.Crashed() && perr == nil && !sameSite(got, siteV2) {
			t.Fatalf("crash at op %d never fired but old site served", k)
		}
		rep, err := Verify(fsx.OS, dir)
		if err != nil || !rep.OK() {
			t.Fatalf("crash at op %d: recovered dir not verifiable: %v\n%s", k, err, rep.Summary())
		}
	}
}

func TestENOSPCDegradesToLastGood(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(fsx.OS, dir, 2).Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	fault := fsx.NewFaultFS(fsx.OS)
	fault.LimitBytes(25) // enough for a page or two, not the site
	_, err := New(fault, dir, 2).Publish(siteV2, "", time.Time{})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if !strings.Contains(err.Error(), "generation") {
		t.Fatalf("report does not name the generation: %v", err)
	}
	// The failed publish must not have touched the committed site.
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("last-good site lost: %v", got)
	}
	if _, err := Recover(fsx.OS, dir); err != nil {
		t.Fatal(err)
	}
	rep, _ := Verify(fsx.OS, dir)
	if !rep.OK() {
		t.Fatalf("dir not clean after ENOSPC + recover:\n%s", rep.Summary())
	}
}

func TestEIOOnFsyncFailsPublish(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(fsx.OS, dir, 2).Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	fault := fsx.NewFaultFS(fsx.OS)
	fault.FailSync(syscall.EIO)
	if _, err := New(fault, dir, 2).Publish(siteV2, "", time.Time{}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want EIO surfaced, not swallowed", err)
	}
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("site changed despite failed fsync: %v", got)
	}
}

// TestEIOAfterCommitRenameFailsPublish: when the directory fsync that
// follows CURRENT's rename fails, the rename is already visible. The
// publish reports the error, so CURRENT must point back at the old
// generation: on error nothing is committed.
func TestEIOAfterCommitRenameFailsPublish(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(fsx.OS, dir, 2).Publish(siteV1, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	probe := fsx.NewFaultFS(fsx.OS)
	probe.CrashAt(0) // drop every op: count them without publishing
	New(probe, dir, 2).Publish(siteV2, "", time.Time{})
	last := -1
	for i, op := range probe.Journal() {
		if strings.Contains(op, " rename ") && strings.HasSuffix(op, CurrentName) {
			last = i + 1 // the directory fsync right after the flip
		}
	}
	if last < 0 {
		t.Fatalf("no CURRENT flip in journal:\n%s", strings.Join(probe.Journal(), "\n"))
	}
	fault := fsx.NewFaultFS(fsx.OS)
	fault.FailAt(last, syscall.EIO)
	if _, err := New(fault, dir, 2).Publish(siteV2, "", time.Time{}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want EIO\njournal:\n%s", err, strings.Join(fault.Journal(), "\n"))
	}
	if got := pagesOf(t, dir); !sameSite(got, siteV1) {
		t.Fatalf("failed commit left the new site live: %v", got)
	}
	if _, err := Recover(fsx.OS, dir); err != nil {
		t.Fatal(err)
	}
	if rep, _ := Verify(fsx.OS, dir); !rep.OK() || rep.Current != "gen-0" {
		t.Fatalf("after recover: current %s\n%s", rep.Current, rep.Summary())
	}
}

// TestConcurrentReadersDuringPublish drives OpenSite from several
// goroutines while generations are being published and requires every
// read to return one of the published versions in full — never a torn
// page, never a mixed site.
func TestConcurrentReadersDuringPublish(t *testing.T) {
	dir := t.TempDir()
	versions := make([]map[string]string, 6)
	for i := range versions {
		versions[i] = map[string]string{
			"index.html": fmt.Sprintf("<html>home v%d</html>", i),
			"a.html":     fmt.Sprintf("<html>alpha v%d with padding %s</html>", i, strings.Repeat("x", 512)),
			"b.html":     fmt.Sprintf("<html>beta v%d</html>", i),
		}
	}
	// keep must cover the versions still potentially being read.
	p := New(fsx.OS, dir, len(versions)+1)
	if _, err := p.Publish(versions[0], "", time.Time{}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				site, _, err := OpenSite(fsx.OS, dir)
				if err != nil {
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
				got := map[string]string{}
				for path, pg := range site.Pages {
					got[path] = pg.HTML
				}
				ok := false
				for _, v := range versions {
					if sameSite(got, v) {
						ok = true
						break
					}
				}
				if !ok {
					errs <- fmt.Errorf("reader observed a mixed site: %v", got)
					return
				}
			}
		}()
	}
	for _, v := range versions[1:] {
		if _, err := p.Publish(v, "", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
