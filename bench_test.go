package strudel_test

// The benchmark harness regenerates the performance side of every
// table and figure in the paper's evaluation (see DESIGN.md Sec. 4 and
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the corresponding tables.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"strudel/internal/baseline/procedural"
	"strudel/internal/baseline/relational"
	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/optimizer"
	"strudel/internal/publish"
	"strudel/internal/repository"
	"strudel/internal/schema"
	"strudel/internal/server"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
	"strudel/internal/template"
	"strudel/internal/workload"
	"strudel/internal/wrapper"
)

// buildSpec assembles a core builder for a workload spec over a data
// graph.
func buildSpec(b *testing.B, spec *workload.SiteSpec, data *graph.Graph) *core.Builder {
	b.Helper()
	cb := core.NewBuilder(spec.Name)
	cb.SetDataGraph(data)
	if err := cb.AddQuery(spec.Query); err != nil {
		b.Fatal(err)
	}
	cb.AddTemplates(spec.Templates)
	for k := range spec.EmbedOnly {
		cb.SetEmbedOnly(k)
	}
	cb.SetIndex(spec.Index)
	cb.SetRootCollection(spec.RootCollection)
	return cb
}

// BenchmarkSiteStatistics (paper Sec. 5.1, table T1 in EXPERIMENTS.md)
// builds the three experience-report sites at the paper's scales and
// reports the per-site statistics alongside build time.
func BenchmarkSiteStatistics(b *testing.B) {
	cases := []struct {
		name string
		spec *workload.SiteSpec
		data *graph.Graph
	}{
		{"homepage-30pubs", workload.BibliographySpec(), workload.Bibliography(30, 42)},
		{"cnn-300articles", workload.ArticleSpec(false), workload.Articles(300, 1997)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pages int
			for i := 0; i < b.N; i++ {
				res, err := buildSpec(b, c.spec, c.data).Build()
				if err != nil {
					b.Fatal(err)
				}
				pages = res.Stats.Pages
			}
			b.ReportMetric(float64(pages), "pages")
			b.ReportMetric(float64(c.spec.QueryLines()), "query-lines")
			b.ReportMetric(float64(c.spec.TemplateLines()), "template-lines")
		})
	}
	b.Run("org-400people", func(b *testing.B) {
		src := workload.Organization(400, 40, 8, 7)
		spec := workload.OrgSpec(false)
		var pages int
		for i := 0; i < b.N; i++ {
			cb := core.NewBuilder(spec.Name)
			cb.AddSource("people.csv", "csv", src.PeopleCSV)
			cb.AddSource("departments.csv", "csv", src.DepartmentsCSV)
			cb.AddSource("projects.txt", "structured", src.ProjectsTxt)
			cb.AddSource("refs.bib", "bibtex", src.BibTeX)
			if err := cb.AddQuery(spec.Query); err != nil {
				b.Fatal(err)
			}
			cb.AddTemplates(spec.Templates)
			cb.SetIndex(spec.Index)
			res, err := cb.Build()
			if err != nil {
				b.Fatal(err)
			}
			pages = res.Stats.Pages
		}
		b.ReportMetric(float64(pages), "pages")
		b.ReportMetric(float64(spec.QueryLines()), "query-lines")
		b.ReportMetric(float64(spec.TemplateLines()), "template-lines")
	})
}

// BenchmarkMultiVersion (T2) measures the cost of producing a site
// variant from the same data: the sports-only CNN site (two extra
// predicates, shared templates) and the external org site (same
// query, five changed templates).
func BenchmarkMultiVersion(b *testing.B) {
	articles := workload.Articles(300, 1997)
	b.Run("cnn-sports-variant", func(b *testing.B) {
		spec := workload.ArticleSpec(true)
		for i := 0; i < b.N; i++ {
			if _, err := buildSpec(b, spec, articles).Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("org-external-variant", func(b *testing.B) {
		src := workload.Organization(120, 25, 6, 7)
		spec := workload.OrgSpec(true)
		for i := 0; i < b.N; i++ {
			cb := core.NewBuilder(spec.Name)
			cb.AddSource("people.csv", "csv", src.PeopleCSV)
			cb.AddSource("departments.csv", "csv", src.DepartmentsCSV)
			cb.AddSource("projects.txt", "structured", src.ProjectsTxt)
			if err := cb.AddQuery(spec.Query); err != nil {
				b.Fatal(err)
			}
			cb.AddTemplates(spec.Templates)
			cb.SetIndex(spec.Index)
			if _, err := cb.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8Suitability (F8) times the three tool classes of the
// paper's Fig. 8 across the data-quantity axis. cmd/experiments prints
// the full quadrant including the variant-effort axis.
func BenchmarkFig8Suitability(b *testing.B) {
	for _, n := range []int{30, 300} {
		data := workload.Bibliography(n, 42)
		b.Run(fmt.Sprintf("strudel-%d", n), func(b *testing.B) {
			spec := workload.BibliographySpec()
			for i := 0; i < b.N; i++ {
				if _, err := buildSpec(b, spec, data).Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("procedural-%d", n), func(b *testing.B) {
			prog := procedural.BibliographySite()
			for i := 0; i < b.N; i++ {
				if _, err := prog.Run(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("relational-%d", n), func(b *testing.B) {
			schemaCols := relational.MaximalSchema(data, "Publications")
			for i := 0; i < b.N; i++ {
				db := relational.NewDB()
				table, err := db.LoadCollection(data, "Publications", schemaCols, []string{"author", "category"})
				if err != nil {
					b.Fatal(err)
				}
				pages := relational.PageSpec{
					Table: table, PathCol: "id", Title: "Publication",
					BodyCols: []string{"title", "year", "journal", "booktitle"},
				}.GeneratePages()
				if len(pages) != n {
					b.Fatalf("pages = %d", len(pages))
				}
			}
		})
	}
}

// BenchmarkMaterializeVsDynamic (E4) compares complete materialization
// against click-time evaluation: total build cost vs first-click
// latency, at growing corpus sizes. The first- and cached-click arms
// time the root's page query alone; rendered-click times what the
// dynamic edge serves, the root rendered through the Renderer on a
// warm page cache (snapshot: BENCH_click.json).
func BenchmarkMaterializeVsDynamic(b *testing.B) {
	for _, n := range []int{100, 1000} {
		data := workload.Articles(n, 5)
		spec := workload.ArticleSpec(false)
		b.Run(fmt.Sprintf("materialize-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildSpec(b, spec, data).Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("first-click-%d", n), func(b *testing.B) {
			q := struql.MustParse(spec.Query)
			for i := 0; i < b.N; i++ {
				dec := incremental.Decompose(q, data, nil)
				roots, err := dec.Roots(spec.RootCollection)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.Page(roots[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cached-click-%d", n), func(b *testing.B) {
			q := struql.MustParse(spec.Query)
			dec := incremental.Decompose(q, data, nil)
			roots, _ := dec.Roots(spec.RootCollection)
			if _, err := dec.Page(roots[0]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Page(roots[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rendered-click-%d", n), func(b *testing.B) {
			dec := incremental.Decompose(struql.MustParse(spec.Query), data, nil)
			rend := &incremental.Renderer{Dec: dec, Templates: spec.Templates, EmbedOnly: spec.EmbedOnly}
			roots, err := dec.Roots(spec.RootCollection)
			if err != nil || len(roots) != 1 {
				b.Fatalf("roots %v, %v", roots, err)
			}
			if _, err := rend.RenderPage(roots[0]); err != nil { // warm the page cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rend.RenderPage(roots[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizer (E5) compares the heuristic planner with the
// cost-based planner exploiting indexes, on a query written in an
// unfavourable syntactic order.
func BenchmarkOptimizer(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		data := workloadPubGraph(n)
		repo := repository.New("")
		repo.Put(data)
		idx := repo.Index(data.Name())
		conds := struql.MustParse(
			`WHERE Publications(x), x -> "year" -> y, x -> "category" -> c, c = "Cat3", y = 1995 COLLECT C(x)`,
		).Root.Where
		for name, planner := range map[string]func([]struql.Condition, *optimizer.Context) *optimizer.Plan{
			"heuristic": optimizer.Heuristic,
			"costbased": optimizer.CostBased,
		} {
			b.Run(fmt.Sprintf("%s-%d", name, n), func(b *testing.B) {
				ctx := &optimizer.Context{Graph: data, Index: idx}
				for i := 0; i < b.N; i++ {
					plan := planner(conds, ctx)
					if _, err := plan.Execute(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// workloadPubGraph builds the optimizer benchmark graph.
func workloadPubGraph(n int) *graph.Graph {
	g := graph.New("data")
	for i := 0; i < n; i++ {
		p := g.NewNode(fmt.Sprintf("pub%d", i))
		g.AddToCollection("Publications", graph.NodeValue(p))
		g.AddEdge(p, "year", graph.Int(int64(1990+i%10)))
		g.AddEdge(p, "category", graph.Str(fmt.Sprintf("Cat%d", i%50)))
		g.AddEdge(p, "title", graph.Str(fmt.Sprintf("Title %d", i)))
	}
	return g
}

// BenchmarkIndexAblation (E6) measures the repository's full-indexing
// trade-off: index build (maintenance) cost vs the speedup of a
// value lookup, with and without indexes.
func BenchmarkIndexAblation(b *testing.B) {
	data := workloadPubGraph(10000)
	b.Run("build-indexes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repository.BuildIndex(data)
		}
	})
	conds := struql.MustParse(`WHERE x -> "year" -> 1995 COLLECT C(x)`).Root.Where
	repo := repository.New("")
	repo.Put(data)
	idx := repo.Index(data.Name())
	b.Run("value-lookup-indexed", func(b *testing.B) {
		ctx := &optimizer.Context{Graph: data, Index: idx}
		for i := 0; i < b.N; i++ {
			plan := optimizer.CostBased(conds, ctx)
			rows, err := plan.Execute(ctx)
			if err != nil || len(rows) != 1000 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
	b.Run("value-lookup-scan", func(b *testing.B) {
		ctx := &optimizer.Context{Graph: data, Index: nil}
		for i := 0; i < b.N; i++ {
			plan := optimizer.CostBased(conds, ctx)
			rows, err := plan.Execute(ctx)
			if err != nil || len(rows) != 1000 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
}

// BenchmarkTextOnly (E7) times the Sec. 3 graph-copy transformation.
func BenchmarkTextOnly(b *testing.B) {
	q := struql.MustParse(`
WHERE Root(p), p -> * -> q, q -> l -> q2, not(isImageFile(q2))
CREATE New(p), New(q), New(q2)
LINK New(q) -> l -> New(q2)
COLLECT TextOnlyRoot(New(p))`)
	for _, n := range []int{50, 500} {
		data := workload.Articles(n, 3)
		front := data.NewNode("front")
		data.AddToCollection("Root", graph.NodeValue(front))
		for _, a := range data.Collection("Articles") {
			data.AddEdge(front, "story", a)
		}
		b.Run(fmt.Sprintf("articles-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := struql.Eval(q, data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify (E8) times constraint verification on the schema
// (data-independent) and on concrete site graphs of growing size.
func BenchmarkVerify(b *testing.B) {
	spec := workload.BibliographySpec()
	q := struql.MustParse(spec.Query)
	s := schema.Build(q)
	constraints := []schema.Constraint{
		schema.Reachable{Root: "RootPage"},
		schema.MustLink{From: "YearPage", Label: "Paper", To: "PaperPresentation"},
		schema.NoPath{From: "AbstractPage", To: "RootPage"},
	}
	b.Run("schema-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if errs := schema.VerifyAll(s, nil, constraints); len(errs) != 0 {
				b.Fatal(errs)
			}
		}
	})
	for _, n := range []int{100, 1000} {
		data := workload.Bibliography(n, 42)
		res, err := struql.Eval(q, data, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("graph-level-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if errs := schema.VerifyAll(nil, res.Output, constraints); len(errs) != 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

// BenchmarkPathExpr ablates regular-path-expression evaluation: the
// product-automaton traversal on a deep chain vs a wide star graph.
func BenchmarkPathExpr(b *testing.B) {
	shapes := map[string]*graph.Graph{}
	chain := graph.New("chain")
	prev := chain.NewNode("root")
	chain.AddToCollection("Root", graph.NodeValue(prev))
	for i := 0; i < 2000; i++ {
		n := chain.NewNode("")
		chain.AddEdge(prev, "next", graph.NodeValue(n))
		prev = n
	}
	shapes["chain-2000"] = chain
	star := graph.New("star")
	hub := star.NewNode("root")
	star.AddToCollection("Root", graph.NodeValue(hub))
	for i := 0; i < 2000; i++ {
		n := star.NewNode("")
		star.AddEdge(hub, "spoke", graph.NodeValue(n))
		star.AddEdge(n, "leaf", graph.Int(int64(i)))
	}
	shapes["star-2000"] = star
	q := struql.MustParse(`WHERE Root(r), r -> * -> q COLLECT Reach(q)`)
	for name, g := range shapes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := struql.Eval(q, g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkolem ablates Skolem-node memoization: repeated
// construction hitting the memo table.
func BenchmarkSkolem(b *testing.B) {
	data := workloadPubGraph(2000)
	q := struql.MustParse(`
WHERE Publications(x), x -> "year" -> y
CREATE YearPage(y)
LINK YearPage(y) -> "Paper" -> x`)
	b.Run("eval-2000-pubs-10-pages", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := struql.Eval(q, data, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.NewNodes != 10 {
				b.Fatalf("new nodes = %d", res.NewNodes)
			}
		}
	})
}

// BenchmarkWrapperBibTeX times the BibTeX wrapper.
func BenchmarkWrapperBibTeX(b *testing.B) {
	src := workload.BibliographyBibTeX(500, 3)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		g := graph.New("BIBTEX")
		if err := (wrapper.BibTeX{}).Wrap(g, "x", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplateExec times template evaluation on a presentation-
// heavy page.
func BenchmarkTemplateExec(b *testing.B) {
	data := workload.Bibliography(200, 42)
	spec := workload.BibliographySpec()
	q := struql.MustParse(spec.Query)
	res, err := struql.Eval(q, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen := sitegen.New(res.Output, sitegen.Config{
		Templates: spec.Templates,
		EmbedOnly: map[string]bool{"PaperPresentation": true},
		Index:     "RootPage",
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site, err := gen.Generate()
		if err != nil {
			b.Fatal(err)
		}
		if len(site.Pages) == 0 {
			b.Fatal("no pages")
		}
	}
}

// BenchmarkPersistence times repository snapshot save/load.
func BenchmarkPersistence(b *testing.B) {
	data := workloadPubGraph(5000)
	dir := b.TempDir()
	repo := repository.New(dir)
	repo.Put(data)
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := repo.Save(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := repo.Save(); err != nil {
		b.Fatal(err)
	}
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repository.Open(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTemplateParse times template compilation.
func BenchmarkTemplateParse(b *testing.B) {
	spec := workload.BibliographySpec()
	srcs := map[string]string{}
	for name, t := range spec.Templates {
		srcs[name] = t.Source
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, src := range srcs {
			if _, err := template.Parse(name, src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExhaustivePlanning ablates plan enumeration: greedy
// cost-based vs exhaustive branch-and-bound, planning time only.
func BenchmarkExhaustivePlanning(b *testing.B) {
	g := workloadPubGraph(1000)
	repo := repository.New("")
	repo.Put(g)
	ctx := &optimizer.Context{Graph: g, Index: repo.Index(g.Name())}
	conds := struql.MustParse(
		`WHERE Publications(x), Publications(z), x -> "year" -> y, z -> "year" -> y, y = 1995, x != z COLLECT C(x)`,
	).Root.Where
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.CostBased(conds, ctx)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.Exhaustive(conds, ctx)
		}
	})
}

// BenchmarkMediationModes compares the warehousing prototype with the
// virtual (query-time) integration mode over the organization sources.
func BenchmarkMediationModes(b *testing.B) {
	src := workload.Organization(100, 20, 5, 7)
	newMediator := func() *mediator.Mediator {
		m := mediator.New(repository.New(""), "Org")
		m.AddSource("people.csv", "csv", src.PeopleCSV)
		m.AddSource("departments.csv", "csv", src.DepartmentsCSV)
		m.AddSource("projects.txt", "structured", src.ProjectsTxt)
		return m
	}
	q := struql.MustParse(`WHERE People(p), p -> "dept" -> "dept1" COLLECT Out(p)`)
	b.Run("warehouse-refresh-and-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := newMediator()
			wh, err := m.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := struql.Eval(q, wh, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warehouse-query-only", func(b *testing.B) {
		m := newMediator()
		wh, err := m.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := struql.Eval(q, wh, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("virtual-query", func(b *testing.B) {
		m := newMediator()
		for i := 0; i < b.N; i++ {
			if _, err := m.VirtualQuery(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDataGuide times graph-schema extraction.
func BenchmarkDataGuide(b *testing.B) {
	for _, n := range []int{100, 1000} {
		data := workload.Bibliography(n, 42)
		b.Run(fmt.Sprintf("bibliography-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if schema.Extract(data).NumStates() == 0 {
					b.Fatal("empty guide")
				}
			}
		})
	}
}

// BenchmarkOptimizedBuild compares end-to-end site builds with the
// interpreter's greedy where stage vs the cost-based optimizer hook.
func BenchmarkOptimizedBuild(b *testing.B) {
	data := workload.Articles(300, 1997)
	spec := workload.ArticleSpec(false)
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildSpec(b, spec, data).Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimizer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cb := buildSpec(b, spec, data)
			cb.EnableOptimizer()
			if _, err := cb.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelBuild measures the parallel build pipeline against
// its own sequential baseline (workers=1) on an orgsite-scale
// workload. The data graph is supplied directly so mediation cost does
// not dilute the parallel phases (query evaluation + page generation),
// and every worker count produces the byte-identical site — the
// determinism suite in internal/sitegen, internal/struql and
// examples/ locks that down. On a multi-core runner the GOMAXPROCS
// variant should beat workers-1 by ~the core count for the generate
// phase; BENCH_parallel.json records a measured snapshot.
func BenchmarkParallelBuild(b *testing.B) {
	data := workload.Articles(1000, 1997)
	spec := workload.ArticleSpec(false)
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			var pages int
			for i := 0; i < b.N; i++ {
				cb := buildSpec(b, spec, data)
				cb.SetWorkers(w)
				res, err := cb.Build()
				if err != nil {
					b.Fatal(err)
				}
				pages = res.Stats.Pages
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
	// Parallel dynamic materialization over the same per-page queries.
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("materialize-workers-%d", w), func(b *testing.B) {
			q := struql.MustParse(spec.Query)
			for i := 0; i < b.N; i++ {
				dec := incremental.Decompose(q, data, nil)
				dec.SetWorkers(w)
				if _, err := dec.MaterializeAll(spec.RootCollection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaRebuild measures incremental maintenance: touch one
// object's title in a copy of an N-page news site's data, set the copy
// and rebuild, against the full from-scratch build of the same site.
// The delta path diffs the two data graphs and re-evaluates the
// queries (cheap) but re-renders only the touched article's dependency
// cone, so its advantage is the rendering fraction it skips; the
// rendered/reused page counts are reported as metrics. The copy and
// the edit run with the timer stopped. A snapshot lives in
// BENCH_delta.json.
func BenchmarkDeltaRebuild(b *testing.B) {
	const n = 500
	spec := workload.ArticleSpec(false)
	for _, mode := range []string{"full", "delta"} {
		b.Run(fmt.Sprintf("%s-%darticles", mode, n), func(b *testing.B) {
			data := workload.Articles(n, 1997)
			cb := buildSpec(b, spec, data)
			prev, err := cb.Build()
			if err != nil {
				b.Fatal(err)
			}
			art, ok := data.NodeByName("art7")
			if !ok {
				b.Fatal("art7 missing")
			}
			touch := func(i int) {
				data = copyOf(data)
				if old, ok := data.First(art, "title"); ok {
					data.RemoveEdge(art, "title", old)
				}
				if err := data.AddEdge(art, "title", graph.Str(fmt.Sprintf("Touched title %d", i%2))); err != nil {
					b.Fatal(err)
				}
				cb.SetDataGraph(data)
			}
			var rendered, reused float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				touch(i)
				b.StartTimer()
				if mode == "full" {
					if _, err := cb.Build(); err != nil {
						b.Fatal(err)
					}
					rendered = float64(len(prev.Site.Pages))
					continue
				}
				res, err := cb.Rebuild(prev)
				if err != nil {
					b.Fatal(err)
				}
				if res.Incremental.Mode != "selective" {
					b.Fatalf("rebuild mode %s, want selective", res.Incremental.Mode)
				}
				rendered = float64(res.Incremental.Site.Rendered)
				reused = float64(res.Incremental.Site.Reused)
				prev = res
			}
			b.ReportMetric(rendered, "rendered-pages")
			b.ReportMetric(reused, "reused-pages")
		})
	}
}

// BenchmarkIncrementalEval measures an incremental rebuild at scale:
// touch one publication's title in a copy of an N-object site's data,
// set the copy and Rebuild (the data graphs are diffed, the queries
// re-evaluate in full, the site graphs are diffed by name and only the
// touched cone re-renders), against a full from-scratch build of the
// same site. The copy and the edit run with the timer stopped. The
// selective arm reports pages rendered vs reused. The partitioned shape is link-structured; the bib shape
// documents embed-heavy sites, where one touch re-renders an O(site)
// page. Snapshot: BENCH_incremental_eval.json.
func BenchmarkIncrementalEval(b *testing.B) {
	shapes := []struct {
		name string
		spec *workload.SiteSpec
	}{
		{"partitioned", workload.PartitionedSpec()},
		{"bib", workload.BibliographySpec()},
	}
	for _, shape := range shapes {
		spec := shape.spec
		for _, n := range []int{1000, 10000} {
			for _, mode := range []string{"full", "selective"} {
				b.Run(fmt.Sprintf("%s-%s-%dpubs", shape.name, mode, n), func(b *testing.B) {
					data := workload.Bibliography(n, 1997)
					cb := buildSpec(b, spec, data)
					prev, err := cb.Build()
					if err != nil {
						b.Fatal(err)
					}
					pub, ok := data.NodeByName("pub7")
					if !ok {
						b.Fatal("pub7 missing")
					}
					touch := func(i int) {
						data = copyOf(data)
						if old, ok := data.First(pub, "title"); ok {
							data.RemoveEdge(pub, "title", old)
						}
						if err := data.AddEdge(pub, "title", graph.Str(fmt.Sprintf("Touched title %d", i%2))); err != nil {
							b.Fatal(err)
						}
						cb.SetDataGraph(data)
					}
					var rendered, reused float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						touch(i)
						b.StartTimer()
						if mode == "full" {
							if _, err := cb.Build(); err != nil {
								b.Fatal(err)
							}
							continue
						}
						res, err := cb.Rebuild(prev)
						if err != nil {
							b.Fatal(err)
						}
						if res.Incremental.Mode != "selective" {
							b.Fatalf("rebuild mode %s, want selective", res.Incremental.Mode)
						}
						rendered = float64(res.Incremental.Site.Rendered)
						reused = float64(res.Incremental.Site.Reused)
						prev = res
					}
					if mode == "selective" {
						b.ReportMetric(rendered, "rendered-pages")
						b.ReportMetric(reused, "reused-pages")
					}
				})
			}
		}
	}
}

// nopResponseWriter discards the response, so the serve benchmarks
// measure handler work rather than recorder allocation.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

// BenchmarkTelemetryOverhead measures what the observability layer
// adds to the hot serve path: one in-memory static page served bare
// vs. through the server.Instrument middleware (request counter,
// latency histogram, in-flight gauge). The instrumented cost must stay
// within noise of the bare cost — the middleware's hot path is two
// time.Now calls and a handful of atomic adds.
func BenchmarkTelemetryOverhead(b *testing.B) {
	site := &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "<html><body><h1>Home</h1></body></html>"},
	}}
	req := httptest.NewRequest("GET", "/index.html", nil)
	run := func(h http.Handler) func(*testing.B) {
		return func(b *testing.B) {
			w := nopResponseWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		}
	}
	edge := server.NewEdge(server.NewSiteSource(site), server.EdgeConfig{})
	b.Run("bare", run(edge))
	reg := telemetry.NewRegistry()
	b.Run("instrumented", run(server.Instrument(reg, "static", edge)))
}

// BenchmarkServeObservability prices the full serving-plane
// observability stack against the metrics-only middleware it extends:
// per-page access accounting (LRU table + per-page latency histogram),
// SLO window accounting, in-flight tracking, and sampled request
// tracing at the default 1-in-16 stride. The dynamic-* pair is the
// acceptance measurement — click-time page serving, the realistic
// request the stack instruments — with a <3% overhead target. The
// floor-* pair serves a one-page in-memory site through a no-op
// response writer, isolating the absolute per-request middleware cost
// (a map lookup + list move under one mutex, a few atomic adds, and
// span allocation on sampled requests only); as a fraction of a no-op
// handler that cost is large by construction, which is why the floor
// pair reports ns, not a percentage target. BENCH_serve_obs.json
// records a measured snapshot.
func BenchmarkServeObservability(b *testing.B) {
	observed := func(reg *telemetry.Registry) server.Observability {
		acct := server.NewAccounting(1024)
		acct.Instrument(reg)
		slo := telemetry.NewSLO(time.Second, 0.99, 5*time.Minute, nil)
		slo.Instrument(reg)
		return server.Observability{
			Registry:   reg,
			Accounting: acct,
			SLO:        slo,
			Tracer:     telemetry.NewRequestTracer(16, 8),
			Inflight:   server.NewInflight(),
		}
	}
	run := func(h http.Handler, req *http.Request) func(*testing.B) {
		return func(b *testing.B) {
			w := nopResponseWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		}
	}

	// Realistic serving: click-time evaluation of a workload site's
	// root page (decomposed query cache warm, template executed per
	// request) — the request profile `strudel serve -dynamic -ops`
	// actually handles. The two arms are interleaved in batches inside
	// one timing loop: this host's wall-clock drifts by more than the
	// effect being measured (±15% between sequential b.Run arms of
	// identical code), so only a drift-canceling A/B design can resolve
	// a 3% target. overhead-% is the acceptance metric.
	b.Run("dynamic-ab", func(b *testing.B) {
		spec := workload.BibliographySpec()
		dec := incremental.Decompose(struql.MustParse(spec.Query), workload.Bibliography(100, 42), nil)
		rend := &incremental.Renderer{Dec: dec, Templates: spec.Templates, EmbedOnly: spec.EmbedOnly}
		rootReq := httptest.NewRequest("GET", "/", nil)
		inner := server.DynamicEdge(func() *incremental.Renderer { return rend }, spec.RootCollection, server.EdgeConfig{})
		w := nopResponseWriter{h: http.Header{}}
		inner.ServeHTTP(w, rootReq) // warm the decomposed-query cache
		base := server.Instrument(telemetry.NewRegistry(), "dynamic", inner)
		full := server.InstrumentObserved(observed(telemetry.NewRegistry()), "dynamic", inner)
		var tBase, tFull time.Duration
		const batch = 8
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				base.ServeHTTP(w, rootReq)
			}
			tBase += time.Since(t0)
			t0 = time.Now()
			for j := 0; j < batch; j++ {
				full.ServeHTTP(w, rootReq)
			}
			tFull += time.Since(t0)
		}
		b.StopTimer()
		reqs := float64(b.N * batch)
		b.ReportMetric(float64(tBase.Nanoseconds())/reqs, "base-ns/req")
		b.ReportMetric(float64(tFull.Nanoseconds())/reqs, "observed-ns/req")
		b.ReportMetric(100*(float64(tFull)/float64(tBase)-1), "overhead-%")
	})

	// Floor: the middleware's absolute cost over a no-op serve.
	site := &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "<html><body><h1>Home</h1></body></html>"},
	}}
	pageReq := httptest.NewRequest("GET", "/index.html", nil)
	edge := server.NewEdge(server.NewSiteSource(site), server.EdgeConfig{})
	b.Run("floor-metrics-only",
		run(server.Instrument(telemetry.NewRegistry(), "static", edge), pageReq))
	b.Run("floor-observed",
		run(server.InstrumentObserved(observed(telemetry.NewRegistry()), "static", edge), pageReq))
}

// BenchmarkExplainOverhead prices the introspection layer on a
// CNN-style site: the plain build, the profiled query stage alone (what
// `strudel explain` and /debug/explain execute), and the on-demand
// provenance evaluation over a built result (what `strudel why` adds to
// a build and one /debug/provenance request costs). Builds never record
// provenance, so the observability tax is paid only when someone asks.
func BenchmarkExplainOverhead(b *testing.B) {
	spec := workload.ArticleSpec(false)
	data := workload.Articles(300, 1997)
	b.Run("build-plain", func(b *testing.B) {
		cb := buildSpec(b, spec, data)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cb.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explain", func(b *testing.B) {
		cb := buildSpec(b, spec, data)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cb.Explain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("provenance", func(b *testing.B) {
		cb := buildSpec(b, spec, data)
		res, err := cb.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prov, err := cb.Provenance(res)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := prov.Page("index.html"); !ok {
				b.Fatal("no provenance for index.html")
			}
		}
	})
}

// BenchmarkPublish prices crash safety: writing a built site as an
// fsync'd atomic generation (stage, hash, fsync every page, rename,
// flip CURRENT durably) against the plain per-page atomic WriteTo
// (temp + rename, no fsync) and against SyncTo steady-state rewrites.
// The gap is almost entirely fsync latency, so it scales with page
// count and storage sync cost, not with CPU. A measured snapshot lives
// in BENCH_publish.json.
func BenchmarkPublish(b *testing.B) {
	const n = 300
	data := workload.Articles(n, 1997)
	spec := workload.ArticleSpec(false)
	res, err := buildSpec(b, spec, data).Build()
	if err != nil {
		b.Fatal(err)
	}
	pages := float64(res.Stats.Pages)
	b.Run(fmt.Sprintf("writeto-%darticles", n), func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if err := res.Site.WriteTo(dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(pages, "pages")
	})
	b.Run(fmt.Sprintf("syncto-%darticles", n), func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if _, err := res.Site.SyncTo(dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(pages, "pages")
	})
	b.Run(fmt.Sprintf("publish-%darticles", n), func(b *testing.B) {
		dir := b.TempDir()
		p := publish.New(nil, dir, 2)
		for i := 0; i < b.N; i++ {
			if _, err := p.PublishSite(res.Site, res.Trace.ID, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(pages, "pages")
	})
}

// BenchmarkServeEdge prices the serving edge's answer classes on a
// built bibliography site: revalidation against a resident hot page
// (304 without touching the source), resident hot bytes, the cold
// conditional fast path (the materialized source knows the tag, no
// render), a cold full serve, and the closed-loop load harness's
// end-to-end throughput over the whole stack. BENCH_serve.json
// snapshots the recorded numbers.
func BenchmarkServeEdge(b *testing.B) {
	bld := buildSpec(b, workload.BibliographySpec(), workload.Bibliography(40, 42))
	res, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	acct := server.NewAccounting(1024)
	edge := server.NewEdge(server.NewSiteSource(res.Site), server.EdgeConfig{
		Mode: "static", HotPages: 12, Compress: true, Accounting: acct,
	})
	var paths []string
	for p := range res.Site.Pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// Make the first ranked page hot, leave the last cold.
	hotPath, coldPath := paths[0], paths[len(paths)-1]
	for i := 0; i < 64; i++ {
		acct.Record("/"+hotPath, 200, 10, time.Millisecond, time.Now())
	}
	edge.Rerank()
	if hot := edge.HotKeys(); len(hot) == 0 {
		b.Fatal("no hot pages after rerank")
	}
	tag := func(path string) string {
		rec := httptest.NewRecorder()
		edge.ServeHTTP(rec, httptest.NewRequest("GET", "/"+path, nil))
		if rec.Code != 200 {
			b.Fatalf("GET /%s = %d", path, rec.Code)
		}
		return rec.Header().Get("ETag")
	}
	hotTag, coldTag := tag(hotPath), tag(coldPath)
	serve := func(path, inm string) func(*testing.B) {
		req := httptest.NewRequest("GET", "/"+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		return func(b *testing.B) {
			w := nopResponseWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				edge.ServeHTTP(w, req)
			}
		}
	}
	b.Run("hot-304", serve(hotPath, hotTag))
	b.Run("hot-bytes", serve(hotPath, ""))
	b.Run("cold-304", serve(coldPath, coldTag))
	b.Run("cold-200", serve(coldPath, ""))
	b.Run("loadgen", func(b *testing.B) {
		b.ReportAllocs()
		var rps, ratio float64
		for i := 0; i < b.N; i++ {
			rep, err := workload.RunLoad(edge, paths, workload.LoadOptions{
				Clients: 4, Requests: 500, Seed: 42, ZipfS: 1.3, Gzip: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			rps, ratio = rep.RPS, rep.Ratio304()
		}
		b.ReportMetric(rps, "rps")
		b.ReportMetric(100*ratio, "304-%")
	})
}

// BenchmarkLedgerOverhead prices the build ledger against the delta
// rebuild it records: every cycle of the B arm converts the result to
// a ledger entry (FromResult), stamps freshness, and appends it to a
// disk-backed ledger — the exact per-refresh work `strudel serve
// -ledger` adds. The arms are interleaved in batches inside one timing
// loop (the same drift-canceling A/B design as the serve-observability
// benchmark: sequential b.Run arms drift more than the effect
// measured). overhead-% is the acceptance metric, target <3% — the
// append is one JSON-encode plus one atomic segment rewrite, against a
// rebuild that re-evaluates queries over a 500-article site. A
// snapshot lives in BENCH_ledger.json.
func BenchmarkLedgerOverhead(b *testing.B) {
	const n = 500
	spec := workload.ArticleSpec(false)
	data := workload.Articles(n, 1997)
	cb := buildSpec(b, spec, data)
	prev, err := cb.Build()
	if err != nil {
		b.Fatal(err)
	}
	art, ok := data.NodeByName("art7")
	if !ok {
		b.Fatal("art7 missing")
	}
	touch := func(i int) {
		data = copyOf(data)
		if old, ok := data.First(art, "title"); ok {
			data.RemoveEdge(art, "title", old)
		}
		if err := data.AddEdge(art, "title", graph.Str(fmt.Sprintf("Touched title %d", i%2))); err != nil {
			b.Fatal(err)
		}
		cb.SetDataGraph(data)
	}
	led, err := ledger.Open(ledger.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	rebuild := func(i int) *core.Result {
		touch(i)
		res, err := cb.Rebuild(prev)
		if err != nil {
			b.Fatal(err)
		}
		prev = res
		return res
	}
	var tBase, tLedger time.Duration
	const batch = 8
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			rebuild(i*batch + j)
		}
		tBase += time.Since(t0)
		t0 = time.Now()
		for j := 0; j < batch; j++ {
			observed := time.Now()
			res := rebuild(i*batch + j)
			e := ledger.FromResult(res, "interval")
			e.StampFreshness(observed, time.Now())
			if _, err := led.Append(e); err != nil {
				b.Fatal(err)
			}
			cycles++
		}
		tLedger += time.Since(t0)
	}
	b.StopTimer()
	// Structural checks: the measured arm really recorded every cycle,
	// freshness stamped, segments on disk.
	last, ok := led.Last()
	if !ok || led.Len() != cycles || int(last.Seq) != cycles {
		b.Fatalf("ledger recorded %d entries, last seq %d, want %d", led.Len(), last.Seq, cycles)
	}
	if last.Freshness == nil || last.Freshness.PropagationSeconds < 0 {
		b.Fatalf("last entry freshness = %+v", last.Freshness)
	}
	perCycle := float64(b.N * batch)
	b.ReportMetric(float64(tBase.Nanoseconds())/perCycle/1e6, "base-ms/cycle")
	b.ReportMetric(float64(tLedger.Nanoseconds())/perCycle/1e6, "ledger-ms/cycle")
	overhead := 100 * (float64(tLedger)/float64(tBase) - 1)
	b.ReportMetric(overhead, "overhead-%")
	// The <3% acceptance bound only means something once the arms ran
	// enough batches to average out scheduler noise: the true cost is
	// ~0.5ms of append against a ~300ms rebuild (~0.2%), but host
	// jitter between the interleaved arms is ±2% at small N. The CI
	// guard runs -benchtime 10x (80 cycles per arm), where the bound
	// holds with margin.
	if b.N*batch >= 80 && overhead > 3 {
		b.Fatalf("ledger overhead %.2f%% exceeds the 3%% budget", overhead)
	}
}
