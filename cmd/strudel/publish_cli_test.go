package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/fsx"
	"strudel/internal/publish"
)

// TestCmdBuildPublishAndVerify walks the crash-safe publication surface
// end to end through the CLI: build -publish commits a generation,
// verify exits 0 on it, 1 after a flipped byte (naming the page), 3 on
// an unreadable directory, and 2 on a usage error.
func TestCmdBuildPublishAndVerify(t *testing.T) {
	dir := writeTestSite(t)
	out := filepath.Join(dir, "published")
	err := cmdBuild([]string{"-manifest", filepath.Join(dir, "site.manifest"), "-publish", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	gdir, err := publish.Current(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(gdir) != "gen-0" {
		t.Fatalf("first publication is %s, want gen-0", gdir)
	}
	if _, err := os.Stat(filepath.Join(gdir, publish.ManifestName)); err != nil {
		t.Fatalf("generation has no manifest: %v", err)
	}

	if code := cmdVerify([]string{out}); code != 0 {
		t.Fatalf("verify on intact dir = %d, want 0", code)
	}
	var code int
	jsonOut := captureStdout(t, func() error {
		code = cmdVerify([]string{"-json", out})
		return nil
	})
	if code != 0 {
		t.Fatalf("verify -json = %d, want 0", code)
	}
	var rep publish.Report
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("verify -json output not JSON: %v\n%s", err, jsonOut)
	}

	// A second build must advance the generation and keep verifying.
	if err := cmdBuild([]string{"-manifest", filepath.Join(dir, "site.manifest"), "-publish", "-out", out}); err != nil {
		t.Fatal(err)
	}
	gdir2, err := publish.Current(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(gdir2) != "gen-1" {
		t.Fatalf("second publication is %s, want gen-1", gdir2)
	}
	if code := cmdVerify([]string{out}); code != 0 {
		t.Fatalf("verify after second publish = %d, want 0", code)
	}

	// Flip one byte in a committed page: verify must fail and say where.
	page := filepath.Join(gdir2, "index.html")
	data, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(page, data, 0o644); err != nil {
		t.Fatal(err)
	}
	summary := captureStdout(t, func() error {
		code = cmdVerify([]string{out})
		return nil
	})
	if code != 1 {
		t.Fatalf("verify on corrupted dir = %d, want 1", code)
	}
	if !strings.Contains(summary, "index.html") || !strings.Contains(summary, "hash mismatch") {
		t.Fatalf("verify summary does not name the corrupted page:\n%s", summary)
	}

	if code := cmdVerify([]string{filepath.Join(dir, "no-such-dir")}); code != 3 {
		t.Fatalf("verify on missing dir = %d, want 3", code)
	}
	if code := cmdVerify([]string{}); code != 2 {
		t.Fatalf("verify with no args = %d, want 2", code)
	}
}

// TestCmdBuildPublishRecoversTornGeneration: build -publish on a
// directory holding crash debris (a torn generation and a staging
// remnant) repairs it before publishing, and the result verifies.
func TestCmdBuildPublishRecoversTornGeneration(t *testing.T) {
	dir := writeTestSite(t)
	out := filepath.Join(dir, "published")
	if err := cmdBuild([]string{"-manifest", filepath.Join(dir, "site.manifest"), "-publish", "-out", out}); err != nil {
		t.Fatal(err)
	}
	// Fake an interrupted next publication: a generation dir with no
	// manifest plus a staging dir.
	for _, d := range []string{"gen-1", "gen-2.tmp"} {
		if err := os.MkdirAll(filepath.Join(out, d), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, d, "half.html"), []byte("<p>torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code := cmdVerify([]string{out}); code != 1 {
		t.Fatalf("verify with torn generation = %d, want 1", code)
	}
	if err := cmdBuild([]string{"-manifest", filepath.Join(dir, "site.manifest"), "-publish", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if code := cmdVerify([]string{out}); code != 0 {
		t.Fatalf("verify after recovering build = %d, want 0", code)
	}
	for _, d := range []string{"gen-2.tmp"} {
		if _, err := os.Stat(filepath.Join(out, d)); !os.IsNotExist(err) {
			t.Errorf("crash debris %s survived the recovering build", d)
		}
	}
}

// TestServeHandlerPublishesGenerations: a static server with a
// publisher commits the initial build as gen-0, a noop refresh
// publishes nothing, and a refresh after a source edit commits gen-1
// whose on-disk pages match what the server then serves.
func TestServeHandlerPublishesGenerations(t *testing.T) {
	dir := writeTestSite(t)
	out := filepath.Join(dir, "published")
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	opts := serveOptions{logg: discardLogger(), pub: publish.New(nil, out, 3)}
	h, c, err := newServing(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	gdir, err := publish.Current(nil, out)
	if err != nil {
		t.Fatalf("initial build not published: %v", err)
	}
	if filepath.Base(gdir) != "gen-0" {
		t.Fatalf("initial publication is %s, want gen-0", gdir)
	}

	// Unchanged sources: the refresh is a noop and must not publish.
	if err := c.step("interval"); err != nil {
		t.Fatal(err)
	}
	if gdir2, _ := publish.Current(nil, out); gdir2 != gdir {
		t.Fatalf("noop refresh advanced the generation to %s", gdir2)
	}

	// Edit a source, refresh: a new generation commits, and the served
	// site equals the published one.
	bib := filepath.Join(dir, "refs.bib")
	data, err := os.ReadFile(bib)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.ReplaceAll(string(data), "Alpha", "Alphaville")
	if err := os.WriteFile(bib, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.step("interval"); err != nil {
		t.Fatal(err)
	}
	gdir3, err := publish.Current(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(gdir3) != "gen-1" {
		t.Fatalf("post-edit publication is %s, want gen-1", gdir3)
	}
	site, _, err := publish.OpenSite(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(served), "Alphaville") {
		t.Fatalf("served root = %d %q", resp.StatusCode, served)
	}
	if got := site.Pages["index.html"].HTML; got != string(served) {
		t.Fatalf("published index.html differs from served page:\n%q\nvs\n%q", got, served)
	}
	if code := cmdVerify([]string{out}); code != 0 {
		t.Fatalf("verify on serve-published dir = %d, want 0", code)
	}
}

// TestServeHandlerPublishFailureKeepsServing: when the refresh's
// publication fails (disk full), the refresh reports the error and the
// server keeps serving the previous build — the swap never happens
// before the commit. Once the disk recovers, the next refresh publishes
// and serves the edit the failed one could not: the mediator absorbed
// it during the failed refresh, so only a rebuild from scratch sees it.
func TestServeHandlerPublishFailureKeepsServing(t *testing.T) {
	dir := writeTestSite(t)
	out := filepath.Join(dir, "published")
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the initial build publish on the real filesystem, then make
	// every later write fail with ENOSPC.
	fault := fsx.NewFaultFS(fsx.OS)
	opts := serveOptions{logg: discardLogger(), pub: publish.New(fault, out, 3)}
	h, c, err := newServing(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	gdir, err := publish.Current(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	fault.LimitBytes(0)

	bib := filepath.Join(dir, "refs.bib")
	data, err := os.ReadFile(bib)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bib, []byte(strings.ReplaceAll(string(data), "Alpha", "Gamma")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.step("interval"); err == nil {
		t.Fatal("refresh succeeded although publication could not commit")
	} else if !strings.Contains(err.Error(), "publish failed") {
		t.Fatalf("refresh error = %v", err)
	}
	if gdir2, _ := publish.Current(nil, out); gdir2 != gdir {
		t.Fatalf("failed publish moved CURRENT to %s", gdir2)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(served), "Alpha") || strings.Contains(string(served), "Gamma") {
		t.Fatalf("server swapped to an uncommitted build: %q", served)
	}

	fault.LimitBytes(-1)
	if err := c.step("interval"); err != nil {
		t.Fatalf("refresh after the disk recovered: %v", err)
	}
	if gdir3, _ := publish.Current(nil, out); filepath.Base(gdir3) != "gen-1" {
		t.Fatalf("recovered refresh left CURRENT at %s, want gen-1", gdir3)
	}
	if code := cmdVerify([]string{out}); code != 0 {
		t.Fatalf("verify after the recovered refresh = %d, want 0", code)
	}
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	served, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(served), "Gamma") {
		t.Fatalf("recovered refresh does not serve the edit: %q", served)
	}
}

// TestCmdServePublishRejectsDynamic: -publish only makes sense when
// pages are materialized; combining it with -dynamic is a usage error.
func TestCmdServePublishRejectsDynamic(t *testing.T) {
	dir := writeTestSite(t)
	err := cmdServe([]string{
		"-manifest", filepath.Join(dir, "site.manifest"),
		"-dynamic", "-publish", filepath.Join(dir, "published"),
	})
	if err == nil || !strings.Contains(err.Error(), "static mode") {
		t.Fatalf("err = %v, want static-mode usage error", err)
	}
}
