package strudel_test

// Property test of the refresh path `strudel serve` runs: BibTeX
// sources fetched through AddSourceFunc, a mediated refresh, and
// Builder.Rebuild keyed on the warehouse delta. Every step must serve
// what a from-scratch build over the same bytes serves — page paths,
// bytes and strong ETags — and report as invalidated exactly the pages
// whose ETag moved, which are exactly the pages whose bytes changed.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/sitegen"
	"strudel/internal/workload"
)

// bibEntry is one publication of a mediated property script.
type bibEntry struct {
	key, title, cat string
	year, file      int
}

// bibFiles is the evolving content of a few BibTeX source files.
type bibFiles struct {
	n       int
	entries []*bibEntry
	next    int
	// gaps holds each file's blank-line count between entries; a
	// whitespace-only edit changes it.
	gaps []int
}

func newBibFiles(rng *rand.Rand, files, entries int) *bibFiles {
	c := &bibFiles{n: files, gaps: make([]int, files)}
	for range entries {
		c.add(rng)
	}
	return c
}

func (c *bibFiles) add(rng *rand.Rand) {
	e := &bibEntry{
		key:   fmt.Sprintf("pub%d", c.next),
		title: fmt.Sprintf("Paper %d", c.next),
		cat:   []string{"Views", "Wrappers", "Queries"}[rng.Intn(3)],
		year:  1995 + rng.Intn(4),
		file:  rng.Intn(c.n),
	}
	c.next++
	c.entries = append(c.entries, e)
}

// text renders source file f.
func (c *bibFiles) text(f int) string {
	var sb strings.Builder
	for _, e := range c.entries {
		if e.file != f {
			continue
		}
		fmt.Fprintf(&sb, "@article{%s,\n  title = {%s},\n  author = {Ann Author and Bo Writer},\n  year = %d,\n  journal = {TODS},\n  category = {%s},\n}\n",
			e.key, e.title, e.year, e.cat)
		sb.WriteString(strings.Repeat("\n", 1+c.gaps[f]))
	}
	return sb.String()
}

// edit applies one seeded edit and names it. whitespace reports an
// edit that changes bytes but no entry.
func (c *bibFiles) edit(rng *rand.Rand, step int) (what string, whitespace bool) {
	e := c.entries[rng.Intn(len(c.entries))]
	switch rng.Intn(5) {
	case 0:
		e.title = fmt.Sprintf("Retitled %d", step)
		return "retitle " + e.key, false
	case 1:
		c.add(rng)
		return "add " + c.entries[len(c.entries)-1].key, false
	case 2:
		if len(c.entries) > 4 {
			for i, x := range c.entries {
				if x == e {
					c.entries = append(c.entries[:i], c.entries[i+1:]...)
					break
				}
			}
			return "remove " + e.key, false
		}
		fallthrough
	case 3:
		// Moves the entry to another year's group page.
		e.year = 1995 + (e.year-1995+1+rng.Intn(3))%4
		return fmt.Sprintf("move %s to %d", e.key, e.year), false
	default:
		f := rng.Intn(c.n)
		c.gaps[f] = (c.gaps[f] + 1) % 3
		return fmt.Sprintf("whitespace in file %d", f), true
	}
}

// mediatedSite builds a site over the current bytes of every file,
// fetched on each refresh.
func mediatedSite(t *testing.T, spec *workload.SiteSpec, c *bibFiles, workers int) *core.Builder {
	t.Helper()
	b := specBuilder(spec)(t)
	b.SetWorkers(workers)
	for f := range c.n {
		if err := b.AddSourceFunc(fmt.Sprintf("src-%d.bib", f), "bibtex",
			func() (string, error) { return c.text(f), nil }); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// changedPaths lists the paths of next whose key differs from prev's,
// new pages included, sorted.
func changedPaths(prev, next *sitegen.Site, key func(*sitegen.Page) string) []string {
	var out []string
	for path, p := range next.Pages {
		if pp, ok := prev.Pages[path]; !ok || key(pp) != key(p) {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

func pageETag(p *sitegen.Page) string { return p.ETag }
func pageHTML(p *sitegen.Page) string { return p.HTML }

// runMediatedScript runs one seeded edit script and checks every step.
// It returns the number of steps that re-rendered a strict subset of
// the site through the cone regenerator.
func runMediatedScript(t *testing.T, spec *workload.SiteSpec, workers int, seed int64, steps int) (selective int) {
	rng := rand.New(rand.NewSource(seed))
	c := newBibFiles(rng, 2+int(seed%3), 24)
	b := mediatedSite(t, spec, c, workers)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= steps; step++ {
		what, whitespace := c.edit(rng, step)
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		info := res.Incremental
		if info == nil {
			t.Fatalf("step %d (%s): no rebuild info", step, what)
		}
		if whitespace && info.Mode != "noop" {
			t.Errorf("step %d (%s): mode %s, want noop (%s)", step, what, info.Mode, info.Summary())
		}
		if info.Mode == "selective" && info.Site.Reused > 0 {
			selective++
		}
		want, err := mediatedSite(t, spec, c, workers).Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := res.Site.Paths(), want.Site.Paths(); strings.Join(got, " ") != strings.Join(exp, " ") {
			t.Fatalf("step %d (%s): paths %v, scratch build has %v", step, what, got, exp)
		}
		for path, wp := range want.Site.Pages {
			gp := res.Site.Pages[path]
			if gp.HTML != wp.HTML {
				t.Errorf("step %d (%s, %s): %s differs from scratch", step, what, info.Summary(), path)
			}
			if gp.ETag != wp.ETag {
				t.Errorf("step %d (%s, %s): %s ETag %s, scratch %s", step, what, info.Summary(), path, gp.ETag, wp.ETag)
			}
		}
		if got, exp := strings.Join(info.Invalidated, " "), strings.Join(changedPaths(prev.Site, res.Site, pageETag), " "); got != exp {
			t.Errorf("step %d (%s): Invalidated [%s], ETag diff [%s]", step, what, got, exp)
		}
		if got, exp := strings.Join(info.Invalidated, " "), strings.Join(changedPaths(prev.Site, res.Site, pageHTML), " "); got != exp {
			t.Errorf("step %d (%s): Invalidated [%s], bytes diff [%s]", step, what, got, exp)
		}
		prev = res
	}
	return selective
}

// TestPropertyMediatedRebuild: seeded edit scripts — retitles, adds,
// removes, year moves between group pages and whitespace-only edits —
// over 2–4 BibTeX files, on the partitioned link site and the Fig. 3
// homepage with its embedded presentations, at workers 1 and 4.
func TestPropertyMediatedRebuild(t *testing.T) {
	shapes := []struct {
		name string
		spec *workload.SiteSpec
	}{
		{"partitioned", workload.PartitionedSpec()},
		{"homepage", workload.BibliographySpec()},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			selective := 0
			for _, workers := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
						selective += runMediatedScript(t, sh.spec, workers, seed, 12)
					})
				}
			}
			if selective == 0 {
				t.Error("no step reused a page: every rebuild rendered the whole site")
			}
		})
	}
}
