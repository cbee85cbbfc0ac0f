package main

import (
	"fmt"
	"sort"

	"strudel/internal/schema"
	"strudel/internal/template"
	"strudel/internal/workload"
)

// workloadDef is one benchmark workload: a site over generated BibTeX
// sources, the edit every cycle makes, and how the serve phase reads.
type workloadDef struct {
	name    string
	spec    *workload.SiteSpec
	records int
	files   int
	// reachable, when set, declares `constraint reachable <root>`.
	reachable string
	// dynamic serves click-time pages (`strudel serve -dynamic`);
	// publish adds `-publish` and `-ledger` directories.
	dynamic, publish bool
	// Each edit cycle retitles retitle records (retitlePct percent of
	// them when set), adds add entries and removes remove entries.
	retitle, retitlePct, add, remove int
	// recordPage names the page that shows one record's title.
	recordPage string
	// serveRequests is the serve phase's request count per round, a
	// whole number of bursts: the reads per edit. It is an assumption
	// set by the time budget, not taken from traffic data. The static
	// workloads read ten bursts per edit, so each run holds about a
	// hundred bursts while refreshes still take most of a round. On
	// dynamic-2k one burst already costs seconds (the click-time "/"
	// renders between a FlushHot and the next Rerank), so it reads one
	// burst per edit to keep several edit samples in a run; half of its
	// requests therefore follow a FlushHot.
	serveRequests int
}

// Serving configuration shared by every workload: `strudel serve -ops
// -hot-pages 64 -compress` with the CLI's other defaults.
const (
	hotPages    = 64
	maxInflight = 256
	// rerankEvery is how many requests pass between two Edge.Rerank
	// calls; rerankStep is how far the fake clock advances for each,
	// the interval RunPolicy uses by default.
	rerankEvery = 1000
	rerankStep  = 10e9 // 10s in nanoseconds
	// burstRequests is the serve burst the latency and throughput
	// figures are taken over; its p99 keeps 20 samples beyond it.
	burstRequests = 2 * rerankEvery
	// revalidatePct of requests carry If-None-Match when the client
	// holds a tag for the page.
	revalidatePct = 90
	zipfS         = 1.2
)

var workloads = []*workloadDef{
	{
		name: "link-10k", spec: partitionedSpec(), records: 10000, files: 8,
		reachable: "HomePage", retitle: 1, recordPage: "ItemPage",
		serveRequests: 20000,
	},
	{
		name: "embed-publish-2k", spec: workload.BibliographySpec(), records: 2000, files: 1,
		publish: true, retitlePct: 1, add: 1, remove: 1, recordPage: "AbstractPage",
		serveRequests: 20000,
	},
	{
		name: "dynamic-2k", spec: partitionedSpec(), records: 2000, files: 4,
		dynamic: true, retitle: 1, recordPage: "ItemPage",
		serveRequests: 2000,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func (w *workloadDef) constraints() []schema.Constraint {
	if w.reachable == "" {
		return nil
	}
	return []schema.Constraint{schema.Reachable{Root: w.reachable}}
}

// editSize is how many records one edit cycle retitles at n records.
func (w *workloadDef) editSize(n int) int {
	if w.retitlePct > 0 {
		return max(1, n*w.retitlePct/100)
	}
	return w.retitle
}

// partitionedSpec is the link-structured site of the repository's
// incremental-evaluation benchmark: one page per publication, linked
// from per-year group pages, nothing embeds a large set. A one-record
// retitle therefore changes only the record's page and its group page.
func partitionedSpec() *workload.SiteSpec {
	return &workload.SiteSpec{
		Name: "partitioned",
		Query: `INPUT BIBTEX
CREATE HomePage()
COLLECT Roots(HomePage())
WHERE Publications(x), x -> "year" -> y
CREATE ItemPage(x), GroupPage(y)
LINK GroupPage(y) -> "Year" -> y,
     GroupPage(y) -> "Item" -> ItemPage(x),
     HomePage() -> "Group" -> GroupPage(y)
{
  WHERE x -> l -> v
  LINK ItemPage(x) -> l -> v
}
OUTPUT Partitioned`,
		Templates: map[string]*template.Template{
			"HomePage": template.MustParse("HomePage", `<html><body><h1>Archive</h1>
<SFMT_UL Group ORDER=ascend KEY=Year>
</body></html>`),
			"GroupPage": template.MustParse("GroupPage", `<html><body><h1>Year <SFMT Year></h1>
<SFMT_UL Item ORDER=ascend KEY=title>
</body></html>`),
			"ItemPage": template.MustParse("ItemPage", `<html><body><h1><SFMT title></h1>
<p>By <SFMT author DELIM=", ">. <SFMT year>.</p>
<SIF abstract><p><SFMT abstract></p></SIF>
</body></html>`),
		},
		Index:          "HomePage",
		Root:           "HomePage",
		RootCollection: "Roots",
	}
}
