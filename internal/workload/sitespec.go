package workload

import (
	"fmt"
	"strings"

	"strudel/internal/template"
)

// SiteSpec bundles a workload's site-definition query source with its
// HTML templates and generation options — the three artifacts a
// STRUDEL site builder writes. Its size metrics (query lines, template
// count and lines) are what the paper reports per site (Sec. 5.1).
type SiteSpec struct {
	Name      string
	Query     string
	Templates map[string]*template.Template
	EmbedOnly map[string]bool
	Index     string
	Root      string // root Skolem function, for constraints and roots
	// RootCollection names the collect target holding the site roots.
	RootCollection string
}

// QueryLines counts the query's non-blank lines, matching the paper's
// "defined by a 115-line query" style metrics.
func (s *SiteSpec) QueryLines() int {
	n := 0
	for _, line := range strings.Split(s.Query, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// TemplateLines sums the template sources' line counts.
func (s *SiteSpec) TemplateLines() int {
	n := 0
	for _, t := range s.Templates {
		n += t.Lines()
	}
	return n
}

func mustTemplates(srcs map[string]string) map[string]*template.Template {
	out := map[string]*template.Template{}
	for name, src := range srcs {
		out[name] = template.MustParse(name, src)
	}
	return out
}

// BibliographySpec is the Sec. 3.1 homepage site: the Fig. 3 query and
// Fig. 7 templates.
func BibliographySpec() *SiteSpec {
	return &SiteSpec{
		Name: "homepage",
		Query: `INPUT BIBTEX
CREATE RootPage(), AbstractsPage()
LINK RootPage() -> "AbstractsPage" -> AbstractsPage()
WHERE Publications(x), x -> l -> v
CREATE PaperPresentation(x), AbstractPage(x)
LINK AbstractPage(x) -> l -> v,
     PaperPresentation(x) -> l -> v,
     PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
     AbstractsPage() -> "Abstract" -> AbstractPage(x)
COLLECT Roots(RootPage())
{
  WHERE l = "year"
  CREATE YearPage(v)
  LINK YearPage(v) -> "Year" -> v,
       YearPage(v) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "YearPage" -> YearPage(v)
}
{
  WHERE l = "category"
  CREATE CategoryPage(v)
  LINK CategoryPage(v) -> "Name" -> v,
       CategoryPage(v) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "CategoryPage" -> CategoryPage(v)
}
OUTPUT HomePage`,
		Templates: mustTemplates(map[string]string{
			"RootPage": `<html><head><title>Publications</title></head><body>
<h2>Publications by Year</h2>
<SFMT_UL YearPage ORDER=ascend KEY=Year>
<h2>Publications by Topic</h2>
<SFMT_UL CategoryPage ORDER=ascend KEY=Name>
<p><SFMT AbstractsPage LINK="All abstracts">
</body></html>`,
			"AbstractsPage": `<html><body><h1>Paper Abstracts</h1>
<SFMT_UL Abstract EMBED>
</body></html>`,
			"YearPage": `<html><body><h1>Publications from <SFMT Year></h1>
<SFMT_UL Paper EMBED>
</body></html>`,
			"CategoryPage": `<html><body><h1>Publications on <SFMT Name></h1>
<SFMT_UL Paper EMBED>
</body></html>`,
			"PaperPresentation": `<SIF postscript><SFMT postscript LINK=title><SELSE><SFMT title></SIF>. By <SFMT author DELIM=", ">. <SIF journal><SFMT journal><SELSE><SFMT booktitle></SIF>, <SFMT year>. <SIF Abstract><SFMT Abstract LINK="abstract"></SIF>`,
			"AbstractPage": `<html><body><h1><SFMT title></h1>
<p><SFMT abstract>
</body></html>`,
		}),
		EmbedOnly:      map[string]bool{"PaperPresentation": true},
		Index:          "RootPage",
		Root:           "RootPage",
		RootCollection: "Roots",
	}
}

// ArticleSpec is the CNN-style site. sportsOnly builds the paper's
// "sports only" variant: the same structure and the same templates,
// derived from the original query by two extra predicates in one
// where clause (Sec. 5.1).
func ArticleSpec(sportsOnly bool) *SiteSpec {
	extra := ""
	name := "cnn"
	if sportsOnly {
		// The two extra predicates of the paper's sports-only query.
		extra = `, x -> "section" -> s2, s2 = "sports"`
		name = "cnn-sports"
	}
	spec := &SiteSpec{
		Name: name,
		Query: fmt.Sprintf(`INPUT CNN
CREATE FrontPage()
COLLECT Roots(FrontPage())
WHERE Articles(x), x -> "section" -> s%s
CREATE ArticlePage(x), SectionPage(s)
LINK SectionPage(s) -> "Section" -> s,
     SectionPage(s) -> "Story" -> ArticlePage(x),
     SectionPage(s) -> "StoryCount" -> COUNT(x),
     FrontPage() -> "SectionPage" -> SectionPage(s)
{
  WHERE x -> a -> v, a in {"title", "byline", "date", "body", "image"}
  LINK ArticlePage(x) -> a -> v
}
{
  WHERE x -> "related" -> r, Articles(r)
  LINK ArticlePage(x) -> "Related" -> ArticlePage(r)
}
OUTPUT Site`, extra),
		Templates: mustTemplates(map[string]string{
			"FrontPage": `<html><head><title>News</title></head><body><h1>Today's News</h1>
<SFMT_UL SectionPage ORDER=ascend KEY=Section>
</body></html>`,
			"SectionPage": `<html><body><h1><SFMT Section> (<SFMT StoryCount> stories)</h1>
<SFMT_UL Story ORDER=ascend KEY=title>
</body></html>`,
			"ArticlePage": `<html><body><h1><SFMT title></h1>
<p><i>By <SFMT byline>, <SFMT date></i></p>
<SIF image><SFMT image></SIF>
<p><SFMT body></p>
<SIF Related><h3>Related stories</h3><SFMT_UL Related></SIF>
</body></html>`,
		}),
		Index:          "FrontPage",
		Root:           "FrontPage",
		RootCollection: "Roots",
	}
	return spec
}

// PartitionedSpec is a link-structured site with one page per object:
// items link from per-year group indexes, nothing embeds a large set.
// A one-object touch therefore re-renders only the item's page, its
// group index and the root, so at 10k pages an incremental rebuild's
// cost is the query phase, not rendering. (BibliographySpec's
// AbstractsPage EMBEDs every abstract, so any touch there pays an
// O(site) template render regardless of how fast the query phase is.)
func PartitionedSpec() *SiteSpec {
	return &SiteSpec{
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
		Templates: mustTemplates(map[string]string{
			"HomePage": `<html><body><h1>Archive</h1>
<SFMT_UL Group ORDER=ascend KEY=Year>
</body></html>`,
			"GroupPage": `<html><body><h1>Year <SFMT Year></h1>
<SFMT_UL Item ORDER=ascend KEY=title>
</body></html>`,
			"ItemPage": `<html><body><h1><SFMT title></h1>
<p>By <SFMT author DELIM=", ">. <SFMT year>.</p>
<SIF abstract><p><SFMT abstract></p></SIF>
</body></html>`,
		}),
		Index:          "HomePage",
		Root:           "HomePage",
		RootCollection: "Roots",
	}
}

// OrgQuery is the organization site's definition query over the
// mediated warehouse of the five sources. It is shared verbatim by the
// internal and external versions: the external site differs only in
// its templates, exactly as in the paper ("no new queries were
// written for that site").
const OrgQuery = `INPUT Org
CREATE HomePage(), PeopleIndex(), ProjectIndex()
LINK HomePage() -> "People" -> PeopleIndex(),
     HomePage() -> "Projects" -> ProjectIndex()
COLLECT Roots(HomePage())
{
  WHERE People(p), p -> l -> v
  CREATE PersonPage(p)
  LINK PersonPage(p) -> l -> v,
       PeopleIndex() -> "Person" -> PersonPage(p)
}
{
  WHERE People(p), p -> "dept" -> di, Departments(d), d -> "ident" -> di
  CREATE DeptPage(d), PersonPage(p)
  LINK DeptPage(d) -> "Member" -> PersonPage(p),
       PersonPage(p) -> "Dept" -> DeptPage(d),
       HomePage() -> "Department" -> DeptPage(d)
  {
    WHERE d -> m -> w, m in {"name", "director"}
    LINK DeptPage(d) -> m -> w
  }
}
{
  WHERE Projects(j), j -> l2 -> v2
  CREATE ProjectPage(j)
  LINK ProjectPage(j) -> l2 -> v2,
       ProjectIndex() -> "Project" -> ProjectPage(j)
}
{
  WHERE Projects(j2), j2 -> "member" -> pi, People(p2), p2 -> "ident" -> pi
  LINK ProjectPage(j2) -> "MemberPage" -> PersonPage(p2)
}
OUTPUT OrgSite`

// OrgSpec builds the organization site spec. The external version
// replaces five templates: person pages hide phone/office and
// proprietary flags, project pages hide sponsors, and the indexes
// hide proprietary people — the same site graph serves both versions.
func OrgSpec(external bool) *SiteSpec {
	personTpl := `<html><body><h1><SFMT name></h1>
<p>Office: <SFMT office>. Phone: <SIF phone><SFMT phone><SELSE>n/a</SIF>.</p>
<p>Department: <SFMT Dept LINK="department page"></p>
<SIF proprietary><p><b>[internal] proprietary project member</b></p></SIF>
</body></html>`
	projectTpl := `<html><body><h1><SFMT name></h1>
<SIF synopsis><p><SFMT synopsis></p></SIF>
<SIF sponsor><p>Sponsored by <SFMT sponsor></p></SIF>
<h3>Members</h3><SFMT_UL MemberPage>
</body></html>`
	peopleIdx := `<html><body><h1>People</h1><SFMT_UL Person ORDER=ascend KEY=name></body></html>`
	homeTpl := `<html><body><h1>Research</h1>
<p><SFMT People LINK="People">, <SFMT Projects LINK="Projects"></p>
<h3>Departments</h3><SFMT_UL Department ORDER=ascend KEY=name>
</body></html>`
	deptTpl := `<html><body><h1><SFMT name></h1>
<h3>Members</h3><SFMT_UL Member ORDER=ascend KEY=name>
</body></html>`
	name := "org-internal"
	if external {
		name = "org-external"
		// The five changed templates of the external version.
		personTpl = `<html><body><h1><SFMT name></h1>
<p>Department: <SFMT Dept LINK="department page"></p>
</body></html>`
		projectTpl = `<html><body><h1><SFMT name></h1>
<SIF synopsis><p><SFMT synopsis></p></SIF>
<h3>Members</h3><SFMT_UL MemberPage>
</body></html>`
		peopleIdx = `<html><body><h1>People (public directory)</h1><SFMT_UL Person ORDER=ascend KEY=name></body></html>`
		homeTpl = `<html><body><h1>Research (public)</h1>
<p><SFMT People LINK="People">, <SFMT Projects LINK="Projects"></p>
<h3>Departments</h3><SFMT_UL Department ORDER=ascend KEY=name>
</body></html>`
		deptTpl = `<html><body><h1><SFMT name></h1></body></html>`
	}
	return &SiteSpec{
		Name:  name,
		Query: OrgQuery,
		Templates: mustTemplates(map[string]string{
			"HomePage":     homeTpl,
			"PeopleIndex":  peopleIdx,
			"ProjectIndex": `<html><body><h1>Projects</h1><SFMT_UL Project ORDER=ascend KEY=name></body></html>`,
			"PersonPage":   personTpl,
			"ProjectPage":  projectTpl,
			"DeptPage":     deptTpl,
		}),
		Index:          "HomePage",
		Root:           "HomePage",
		RootCollection: "Roots",
	}
}
