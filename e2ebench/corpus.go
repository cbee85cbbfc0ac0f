package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// record is one BibTeX entry of a workload's source data.
type record struct {
	key     string
	kind    string
	title   string
	authors []string
	year    int
	venue   string // journal for articles, booktitle for inproceedings
	cats    []string
	file    int
}

var (
	firstNames = []string{"Mary", "Dan", "Alon", "Daniela", "Jaewoo", "Norman", "Ann", "Bo", "Cy", "Dee", "Eve", "Flo"}
	lastNames  = []string{"Fernandez", "Suciu", "Levy", "Florescu", "Kang", "Ramsey", "Adams", "Baker", "Chen", "Dietz"}
	categories = []string{"Semistructured Data", "Programming Languages", "Query Optimization", "Web Sites", "Data Integration", "Networks", "Verification", "Views"}
	venues     = []string{"SIGMOD", "VLDB", "ICDE", "PODS", "ICDT", "WWW"}
	journals   = []string{"TODS", "TOPLAS", "VLDB Journal", "SIGMOD Record"}
	words      = []string{"optimizing", "declarative", "semistructured", "queries", "graphs", "management", "incremental", "views", "schemas", "sites", "integration", "wrappers", "templates", "paths", "regular", "expressions"}
)

// corpus is the source data of one run: records spread over a fixed
// number of BibTeX files, generated and edited from one seeded stream
// so the same seed always yields the same files and the same edits.
type corpus struct {
	dir   string
	files int
	rng   *rand.Rand
	recs  []*record // live records in creation order
	next  int       // next fresh key number
	edits int       // edit counter, makes every new title unique
	// lastEdited is the most recently retitled record.
	lastEdited *record
}

func newCorpus(dir string, n, files int, seed int64) *corpus {
	c := &corpus{dir: dir, files: files, rng: rand.New(rand.NewSource(seed))}
	for range n {
		c.recs = append(c.recs, c.newRecord())
	}
	return c
}

func (c *corpus) pick(ss []string) string { return ss[c.rng.Intn(len(ss))] }

func (c *corpus) title() string {
	n := 3 + c.rng.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = c.pick(words)
	}
	parts[0] = strings.ToUpper(parts[0][:1]) + parts[0][1:]
	return strings.Join(parts, " ")
}

func (c *corpus) newRecord() *record {
	r := &record{
		key:   fmt.Sprintf("pub%d", c.next),
		title: c.title(),
		year:  1988 + c.rng.Intn(10),
		file:  c.next % c.files,
	}
	c.next++
	for range 1 + c.rng.Intn(3) {
		r.authors = append(r.authors, c.pick(firstNames)+" "+c.pick(lastNames))
	}
	if c.rng.Intn(2) == 0 {
		r.kind, r.venue = "article", c.pick(journals)
	} else {
		r.kind, r.venue = "inproceedings", "Proc. of "+c.pick(venues)
	}
	for range 1 + c.rng.Intn(2) {
		r.cats = append(r.cats, c.pick(categories))
	}
	return r
}

func (r *record) bibtex(sb *strings.Builder) {
	venueField := "journal"
	if r.kind == "inproceedings" {
		venueField = "booktitle"
	}
	fmt.Fprintf(sb, "@%s{%s,\n  title = {%s},\n  author = {%s},\n  year = %d,\n  %s = {%s},\n",
		r.kind, r.key, r.title, strings.Join(r.authors, " and "), r.year, venueField, r.venue)
	for _, cat := range r.cats {
		fmt.Fprintf(sb, "  category = {%s},\n", cat)
	}
	sb.WriteString("}\n\n")
}

func (c *corpus) fileName(f int) string { return fmt.Sprintf("src-%d.bib", f) }

func (c *corpus) path(f int) string { return filepath.Join(c.dir, c.fileName(f)) }

// writeFile renders source file f and puts it in place the way an
// editor saves: a temporary file renamed over the old one, so a fetch
// never sees a torn file.
func (c *corpus) writeFile(f int) error {
	var sb strings.Builder
	for _, r := range c.recs {
		if r.file == f {
			r.bibtex(&sb)
		}
	}
	tmp := c.path(f) + ".tmp"
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path(f))
}

func (c *corpus) writeAll() error {
	for f := range c.files {
		if err := c.writeFile(f); err != nil {
			return err
		}
	}
	return nil
}

// edit is one source change and what the site must show for it.
type edit struct {
	retitled []*record
	added    []*record
	removed  []*record
}

// pickRetitle chooses n distinct live records for the next edit.
func (c *corpus) pickRetitle(n int) []*record {
	chosen := map[*record]bool{}
	var out []*record
	for len(out) < n {
		r := c.recs[c.rng.Intn(len(c.recs))]
		if !chosen[r] {
			chosen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// apply retitles the given records, adds and removes entries, and
// rewrites the touched source files.
func (c *corpus) apply(retitle []*record, add, remove int) (*edit, error) {
	e := &edit{retitled: retitle}
	touched := map[int]bool{}
	chosen := map[*record]bool{}
	for _, r := range retitle {
		chosen[r] = true
		c.edits++
		r.title = fmt.Sprintf("Retitled %d %s", c.edits, c.title())
		touched[r.file] = true
		c.lastEdited = r
	}
	for range add {
		r := c.newRecord()
		c.recs = append(c.recs, r)
		chosen[r] = true
		e.added = append(e.added, r)
		touched[r.file] = true
	}
	for len(e.removed) < remove {
		i := c.rng.Intn(len(c.recs))
		r := c.recs[i]
		if chosen[r] {
			continue
		}
		chosen[r] = true
		c.recs = append(c.recs[:i], c.recs[i+1:]...)
		e.removed = append(e.removed, r)
		touched[r.file] = true
	}
	files := make([]int, 0, len(touched))
	for f := range touched {
		files = append(files, f)
	}
	sort.Ints(files)
	for _, f := range files {
		if err := c.writeFile(f); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// years lists the distinct publication years, ascending.
func (c *corpus) years() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range c.recs {
		if !seen[r.year] {
			seen[r.year] = true
			out = append(out, r.year)
		}
	}
	sort.Ints(out)
	return out
}
