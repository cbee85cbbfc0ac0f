package strudel_test

// Native fuzz targets for the two user-facing languages, seeded from
// the example sites' real queries and data definitions. `make fuzz`
// runs each for a short smoke interval; longer runs take
//
//	go test -run '^$' -fuzz FuzzStruQLParse -fuzztime 60s .

import (
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/workload"
)

const fuzzDataDefSeed = `
collection Publications { }
object pub1 in Publications {
    title "A Query Language for a Web-Site Management System"
    author "Mary Fernandez"
    author "Daniela Florescu"
    year 1997
    abstract "abstracts/pub1.txt"
    postscript "papers/pub1.ps.gz"
    category "Semistructured Data"
}
object pub2 in Publications {
    title "Catching the Boat with Strudel"
    year 1998
    contact pub1
}
`

const fuzzPersonSeed = `
object mff in People {
    name "Mary Fernandez"
    address "180 Park Ave, Florham Park, NJ"
    phone "973-360-8679"
    activity "PC member, SIGMOD 1999"
    patent "US5999999: Method for declarative Web-site management"
}
`

// FuzzStruQLParse asserts the StruQL parser never panics on any input,
// and that every accepted query round-trips through its canonical
// rendering. Seeds are the real site-definition queries of the example
// sites.
func FuzzStruQLParse(f *testing.F) {
	f.Add(workload.BibliographySpec().Query)
	f.Add(workload.ArticleSpec(false).Query)
	f.Add(workload.ArticleSpec(true).Query)
	f.Add(workload.OrgQuery)
	f.Add(homepageDiffQuery)
	f.Add(textonlyDiffQuery)
	f.Add(`WHERE x -> ("cite"|"ref")* . "title" -> t COLLECT Titles(t)`)
	f.Add(`INPUT A WHERE C(x), not(x -> "a" -> y), x >= 2 CREATE F(x) LINK F(x) -> "n" -> COUNT(x) OUTPUT B`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := struql.Parse(src)
		if err != nil {
			return
		}
		q2, err := struql.Parse(q.String())
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, q.String())
		}
		if q.String() != q2.String() {
			t.Fatalf("canonical form unstable:\n%s\nvs\n%s", q.String(), q2.String())
		}
	})
}

// FuzzDataDefParse asserts the data-definition parser never panics,
// and that accepted sources also load through the wrapper path
// (ParseInto over a shared graph) without crashing. Seeds are the
// example sites' data definitions.
func FuzzDataDefParse(f *testing.F) {
	f.Add(fuzzDataDefSeed)
	f.Add(fuzzPersonSeed)
	f.Add(`collection C { a text } object o in C { a "f.txt" nested { k "v" } }`)
	f.Add(`object a { next b } object b { next a weight 3.5 live true }`)
	f.Fuzz(func(t *testing.T, src string) {
		res, err := datadef.Parse("fuzz", src)
		if err != nil {
			return
		}
		if res.Graph == nil {
			t.Fatal("accepted source produced a nil graph")
		}
		// The wrapper entry point must accept what Parse accepts.
		if err := datadef.ParseInto(graph.New("fuzz2"), src); err != nil {
			// ParseInto may reject name clashes with pre-existing nodes,
			// but a fresh graph has none — only real parse errors differ.
			if !strings.Contains(err.Error(), "parse") && !strings.Contains(err.Error(), ":") {
				t.Fatalf("ParseInto rejects what Parse accepts: %v", err)
			}
		}
	})
}
