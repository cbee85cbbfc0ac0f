package main

// Flag-to-edge wiring: -hot-pages/-compress route serving through the
// caching edge in both modes, with working conditional requests and
// gzip, and a static refresh swaps the edge's snapshot so changed
// pages serve fresh bytes while a client's stale tag gets a 200.

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

func TestServeHandlerEdgeModes(t *testing.T) {
	dir := writeTestSite(t)
	for _, dynamic := range []bool{false, true} {
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		h, c, err := newServing(m, serveOptions{
			dynamic:  dynamic,
			hotPages: 4,
			compress: true,
			logg:     discardLogger(),
		})
		if err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
		if c == nil {
			t.Fatalf("dynamic=%v: nil refresh cycle", dynamic)
		}
		srv := httptest.NewServer(h)

		resp, err := http.Get(srv.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || !strings.Contains(string(body), "Papers") {
			t.Errorf("dynamic=%v: / = %d %q", dynamic, resp.StatusCode, body)
		}
		if etag == "" {
			t.Fatalf("dynamic=%v: edge served no ETag", dynamic)
		}

		// Revalidation answers 304 with no body.
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 304 || len(b) != 0 {
			t.Errorf("dynamic=%v: revalidation = %d (%d bytes), want 304 empty",
				dynamic, resp.StatusCode, len(b))
		}

		// Gzip negotiation round-trips to the same bytes. The default
		// transport would decode transparently; ask explicitly so the
		// Content-Encoding header stays visible.
		req, _ = http.NewRequest(http.MethodGet, srv.URL+"/", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wire, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		plain := wire
		if resp.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(strings.NewReader(string(wire)))
			if err != nil {
				t.Fatal(err)
			}
			if plain, err = io.ReadAll(zr); err != nil {
				t.Fatal(err)
			}
		}
		if string(plain) != string(body) {
			t.Errorf("dynamic=%v: gzip round-trip changed bytes", dynamic)
		}
		srv.Close()
	}
}
