package template

import (
	"sort"
	"strings"
	"testing"
)

// formatReads renders a read set as "label{children}", labels sorted,
// with '*' marking EMBED-rendered nodes.
func formatReads(r *ReadSet) string {
	labels := make([]string, 0, len(r.children))
	for l := range r.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(' ')
		}
		c := r.children[l]
		b.WriteString(l)
		if c.embed {
			b.WriteByte('*')
		}
		if !c.Leaf() {
			b.WriteString("{" + formatReads(c) + "}")
		}
	}
	return b.String()
}

func TestReads(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"text only", `<p>static</p>`, ``},
		{"attribute", `<SFMT title>`, `title{Name Year name title}`},
		{"dotted path", `<SFMT Paper.Author.name>`, `Paper{Author{name{Name Year name title}}}`},
		{"at-prefixed paths", `<SFMT @Paper.title><SIF @Paper.year>y</SIF>`, `Paper{title{Name Year name title} year}`},
		{"variable shadows attribute",
			`<SFOR title Paper><SFMT title.name></SFOR><SFMT title>`, `Paper{name{Name Year name title}} title{Name Year name title}`},
		{"nested SFOR",
			`<SFOR p Paper><SFOR a p.Author><SFMT a.name> <SFMT p.year></SFOR></SFOR>`,
			`Paper{Author{name{Name Year name title}} year{Name Year name title}}`},
		{"inner variable shadows outer",
			`<SFOR p Paper><SFOR p p.Cites><SFMT p.title></SFOR></SFOR>`, `Paper{Cites{title{Name Year name title}}}`},
		{"KEY under the values", `<SFMT_UL Group ORDER=ascend KEY=Year.label>`, `Group{Name Year{label} name title}`},
		{"KEY through a variable",
			`<SFOR p Paper><SFMT_UL p.Cites ORDER=ascend KEY=p.year></SFOR>`, `Paper{Cites{Name Year name title} year}`},
		{"SFOR KEY does not see its own variable",
			`<SFOR year Paper ORDER=descend KEY=year><SFMT year.title></SFOR>`, `Paper{title{Name Year name title} year}`},
		{"SFOR KEY through an outer variable",
			`<SFOR p Paper><SFOR c p.Cites ORDER=ascend KEY=p.title><SFMT c></SFOR></SFOR>`,
			`Paper{Cites{Name Year name title} title}`},
		{"LINK expression", `<SFMT Paper LINK=Paper.title>`, `Paper{Name Year name title}`},
		{"LINK expression through a variable",
			`<SFOR p Paper><SFMT p.pdf LINK=p.title></SFOR>`, `Paper{pdf{Name Year name title} title}`},
		{"LINK literal", `<SFMT Paper LINK="all papers">`, `Paper`},
		{"SIF operators and NULL",
			`<SIF a.x AND NOT b = NULL OR (c.y > 3 AND "k" != d)>t<SELSE><SFMT e></SIF>`,
			`a{x} b c{y} d e{Name Year name title}`},
		{"SIF through a variable",
			`<SFOR p Paper><SIF p.Abstract.text = NULL>none</SIF></SFOR>`, `Paper{Abstract{text}}`},
		{"EMBED", `<SFMT_UL Paper EMBED><SFMT Year>`, `Paper* Year{Name Year name title}`},
		{"EMBED below a link", `<SFMT Paper.Abstract EMBED>`, `Paper{Abstract*}`},
		{"EMBED through a variable",
			`<SFOR p Paper ORDER=ascend KEY=title><SFMT p EMBED></SFOR>`, `Paper*{title}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tpl, err := Parse("t", c.src)
			if err != nil {
				t.Fatal(err)
			}
			if got := formatReads(tpl.Reads()); got != c.want {
				t.Errorf("reads = %q, want %q", got, c.want)
			}
		})
	}
}
