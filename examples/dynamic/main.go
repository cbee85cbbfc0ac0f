// Dynamic demonstrates the "Web site as view" spectrum (paper Secs. 1
// and 6): the same site-definition query served two ways. First the
// fully materialized site is built; then the query is decomposed and
// pages are computed at click time against the data graph, with
// result caching. The program starts a local HTTP server in dynamic
// mode, walks a few clicks through it, and prints the cache behaviour.
//
// Run: go run ./examples/dynamic
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"time"

	"strudel/internal/core"
	"strudel/internal/incremental"
	"strudel/internal/server"
	"strudel/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynamic:", err)
		os.Exit(1)
	}
}

func run() error {
	data := workload.Articles(200, 5)
	spec := workload.ArticleSpec(false)

	newBuilder := func() *core.Builder {
		b := core.NewBuilder(spec.Name)
		b.SetDataGraph(data)
		if err := b.AddQuery(spec.Query); err != nil {
			panic(err)
		}
		b.AddTemplates(spec.Templates)
		b.SetIndex(spec.Index)
		b.SetRootCollection(spec.RootCollection)
		return b
	}

	// Full materialization: everything computed up front.
	t0 := time.Now()
	res, err := newBuilder().Build()
	if err != nil {
		return err
	}
	fmt.Printf("materialized: %d pages in %v (all work before the first click)\n",
		res.Stats.Pages, time.Since(t0))

	// Dynamic: only the root is precomputed; each click runs a query.
	t1 := time.Now()
	renderer, err := newBuilder().BuildDynamic()
	if err != nil {
		return err
	}
	srv := httptest.NewServer(server.DynamicEdge(func() *incremental.Renderer { return renderer },
		spec.RootCollection, server.EdgeConfig{}))
	defer srv.Close()
	fmt.Printf("dynamic:      ready in %v (decomposition only)\n", time.Since(t1))

	get := func(path string) (string, time.Duration, error) {
		start := time.Now()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return "", 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), time.Since(start), err
	}

	body, d, err := get("/")
	if err != nil {
		return err
	}
	fmt.Printf("click /           -> %6d bytes in %v\n", len(body), d)
	links := regexp.MustCompile(`href="(/page/[^"]+)"`).FindAllStringSubmatch(body, 3)
	for _, l := range links {
		if _, d, err := get(l[1]); err == nil {
			fmt.Printf("click %-12s -> computed at click time in %v\n", l[1], d)
		}
	}
	// Repeat clicks hit the cache.
	for _, l := range links {
		if _, d, err := get(l[1]); err == nil {
			fmt.Printf("again %-12s -> served from cache in %v\n", l[1], d)
		}
	}
	st := renderer.Dec.Stats()
	fmt.Printf("cache: %d misses, %d hits, %d binding rows computed\n",
		st.CacheMisses, st.CacheHits, st.BindingsComputed)
	return nil
}
