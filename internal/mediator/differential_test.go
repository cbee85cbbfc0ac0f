package mediator

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/repository"
	"strudel/internal/struql"
	"strudel/internal/wrapper"
)

// counting wraps a wrapper and counts its Wrap calls.
type counting struct {
	wrapper.Wrapper
	calls int
}

func (c *counting) Wrap(g *graph.Graph, name, src string) error {
	c.calls++
	return c.Wrapper.Wrap(g, name, src)
}

// countedSource registers a source that serves *content (or *fail)
// through a counting wrapper of the given kind.
func countedSource(m *Mediator, name, kind string, mode SourceMode, content *string, fail *error) *counting {
	w, _ := wrapper.ByName(kind)
	c := &counting{Wrapper: w}
	m.AddSourceDynamic(&Source{Name: name, Wrapper: c, Mode: mode, Fetch: func() (string, error) {
		if fail != nil && *fail != nil {
			return "", *fail
		}
		return *content, nil
	}})
	return c
}

// TestRefreshRewrapsOnlyChangedSources: a source is wrapped on its
// first refresh and then only when its bytes change; a refresh that
// re-wraps nothing returns the committed warehouse itself with an
// empty delta.
func TestRefreshRewrapsOnlyChangedSources(t *testing.T) {
	m := New(repository.New(""), "W")
	a, b, c := "id,x\na1,1\n", "id,x\nb1,1\n", "id,x\nc1,1\n"
	ca := countedSource(m, "a.csv", "csv", Merge, &a, nil)
	cb := countedSource(m, "b.csv", "csv", Merge, &b, nil)
	cc := countedSource(m, "c.csv", "csv", Merge, &c, nil)
	calls := func() [3]int { return [3]int{ca.calls, cb.calls, cc.calls} }

	w1, _, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [3]int{1, 1, 1} {
		t.Fatalf("first refresh wrapped %v, want each source once", got)
	}

	w2, r2, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [3]int{1, 1, 1} {
		t.Errorf("unchanged refresh wrapped %v", got)
	}
	if w2 != w1 {
		t.Error("unchanged refresh must return the committed warehouse")
	}
	if r2.Warehouse == nil || !r2.Warehouse.Empty() {
		t.Errorf("unchanged refresh delta = %v, want empty", r2.Warehouse)
	}
	for _, st := range r2.Sources {
		if st.State != Fresh || !st.Unchanged || st.Delta == nil || !st.Delta.Empty() {
			t.Errorf("%s: %+v, want fresh, unchanged, empty delta", st.Name, st)
		}
	}
	if got, want := r2.Summary(), "3/3 sources fresh (3 unchanged)"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	if m.Refreshes != 2 {
		t.Errorf("Refreshes = %d, want 2", m.Refreshes)
	}

	b += "b2,2\n"
	w3, r3, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [3]int{1, 2, 1} {
		t.Errorf("one edit wrapped %v, want only b.csv again", got)
	}
	if w3 == w2 {
		t.Error("an edit must build a new warehouse")
	}
	if got := len(w3.Collection("B")); got != 2 {
		t.Errorf("B = %d members, want 2", got)
	}
	if st, _ := r3.Source("b.csv"); st.Unchanged || st.Delta.Empty() {
		t.Errorf("b.csv: %+v, want re-wrapped with a delta", st)
	}
	if got, want := r3.Summary(), "3/3 sources fresh (2 unchanged)"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	// The committed warehouse is untouched by the rebuild.
	if got := len(w2.Collection("B")); got != 1 {
		t.Errorf("previous warehouse mutated: B = %d members", got)
	}
}

// TestRefreshRecoveredSourceNotRewrapped: a source that fails and then
// serves the bytes of its last-good copy again is fresh, not degraded,
// and is not re-wrapped.
func TestRefreshRecoveredSourceNotRewrapped(t *testing.T) {
	m := New(repository.New(""), "W")
	content := "id,x\na1,1\n"
	var fail error
	c := countedSource(m, "a.csv", "csv", Merge, &content, &fail)
	w1, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	fail = errors.New("network down")
	w2, r2, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := r2.Source("a.csv"); st.State != Degraded || st.Unchanged {
		t.Fatalf("failing source: %+v, want degraded", st)
	}
	if w2 != w1 {
		t.Error("a degraded refresh that re-wraps nothing must keep the warehouse")
	}
	fail = nil
	w3, r3, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r3.Source("a.csv")
	if st.State != Fresh || !st.Unchanged || !st.StaleSince.IsZero() {
		t.Errorf("recovered source: %+v, want fresh, unchanged, not stale", st)
	}
	if c.calls != 1 {
		t.Errorf("wrapped %d times, want once", c.calls)
	}
	if w3 != w1 {
		t.Error("recovery with identical bytes must keep the warehouse")
	}
}

// TestRefreshMalformedBytesStayDegraded: bytes the wrapper rejects
// never commit their digest, so every refresh re-wraps them and stays
// degraded until the source is fixed.
func TestRefreshMalformedBytesStayDegraded(t *testing.T) {
	m := New(repository.New(""), "W")
	good := "object a1 in A { x 1 }\n"
	content := good
	c := countedSource(m, "a.dd", "datadef", Merge, &content, nil)
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	content = "object a1 in A { x \n"
	for i := 0; i < 3; i++ {
		_, r, err := m.RefreshWithReport()
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := r.Source("a.dd"); st.State != Degraded || st.Err == nil {
			t.Fatalf("refresh %d: %+v, want degraded", i, st)
		}
		if c.calls != i+2 {
			t.Fatalf("refresh %d: %d wraps, want %d", i, c.calls, i+2)
		}
	}
	content = good
	_, r, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Source("a.dd"); st.State != Fresh || !st.Unchanged {
		t.Errorf("restored bytes: %+v, want fresh and unchanged", st)
	}
	if c.calls != 4 {
		t.Errorf("restored bytes re-wrapped: %d wraps", c.calls)
	}
}

// TestRefreshFailedMappingCommitsNoDigest: a GAV mapping that fails on
// new bytes aborts the refresh with nothing committed — graphs or
// digests — so the next refresh re-wraps those bytes.
func TestRefreshFailedMappingCommitsNoDigest(t *testing.T) {
	m := New(repository.New(""), "W")
	content := "object i1 in Items { v 1 }\n"
	c := countedSource(m, "b.dd", "datadef", Mapped, &content, nil)
	if err := m.AddMapping(struql.MustParse(`INPUT b.dd WHERE Items(x) COLLECT Out(x)`)); err != nil {
		t.Fatal(err)
	}
	w1, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	// Items vanishes: the mapping's collection no longer exists.
	content = "object i1 in Other { v 1 }\n"
	for i := 0; i < 2; i++ {
		if _, err := m.Refresh(); err == nil || !strings.Contains(err.Error(), "mapping") {
			t.Fatalf("refresh %d: err = %v, want a mapping failure", i, err)
		}
		if c.calls != i+2 {
			t.Fatalf("refresh %d: %d wraps, want %d", i, c.calls, i+2)
		}
		if wh, _ := m.Warehouse(); wh != w1 {
			t.Fatalf("refresh %d: aborted refresh replaced the warehouse", i)
		}
	}
	content = "object i1 in Items { v 2 }\n"
	w2, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if w2 == w1 || c.calls != 4 {
		t.Errorf("fixed bytes: new warehouse %v, %d wraps", w2 != w1, c.calls)
	}
}

// TestRefreshAddedMappingRebuilds: a mapping registered after a refresh
// reaches the warehouse on the next one even though no source changed.
func TestRefreshAddedMappingRebuilds(t *testing.T) {
	m := New(repository.New(""), "W")
	content := "object i1 in Items { v 1 }\n"
	c := countedSource(m, "b.dd", "datadef", Merge, &content, nil)
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMapping(struql.MustParse(`INPUT b.dd WHERE Items(x) COLLECT Out(x)`)); err != nil {
		t.Fatal(err)
	}
	wh, r, err := m.RefreshWithReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(wh.Collection("Out")) != 1 || r.Warehouse.Empty() {
		t.Errorf("Out = %v, delta %s", wh.Collection("Out"), r.Warehouse.Summary())
	}
	if c.calls != 1 {
		t.Errorf("%d wraps, want the unchanged source reused", c.calls)
	}
}

// editModel is one source of the differential-mediation property test:
// a list of records rendered either as datadef (named objects in
// collections, references within the source, nested anonymous
// objects) or as BibTeX with ordered authors (one unnamed node per
// author). Names come from a small pool shared by every source, so
// sources collide on names.
type editModel struct {
	bibtex bool
	recs   []*record
	extra  []string // declared-but-maybe-empty collections
	pad    string   // trailing whitespace: edits bytes, not content
}

type record struct {
	name   string
	title  string
	colls  []string
	refs   []string // names of records in the same source
	nested []string // datadef: anonymous sub-objects; bibtex: authors
}

var (
	poolNames = []string{"o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"}
	poolColls = []string{"A", "B", "C"}
)

func (m *editModel) has(name string) bool {
	for _, r := range m.recs {
		if r.name == name {
			return true
		}
	}
	return false
}

func (m *editModel) text() string {
	var b strings.Builder
	for _, r := range m.recs {
		if m.bibtex {
			fmt.Fprintf(&b, "@article{%s,\n  title = {%s},\n  author = {%s}\n}\n", r.name, r.title, strings.Join(r.nested, " and "))
			continue
		}
		fmt.Fprintf(&b, "object %s", r.name)
		if len(r.colls) > 0 {
			fmt.Fprintf(&b, " in %s", strings.Join(r.colls, ", "))
		}
		fmt.Fprintf(&b, " { title %q", r.title)
		for _, ref := range r.refs {
			fmt.Fprintf(&b, " ref %s", ref)
		}
		for _, v := range r.nested {
			fmt.Fprintf(&b, " sub { v %q }", v)
		}
		b.WriteString(" }\n")
	}
	if !m.bibtex {
		for _, c := range m.extra {
			fmt.Fprintf(&b, "collection %s { }\n", c)
		}
	}
	return b.String() + m.pad
}

func newRecord(rng *rand.Rand, name string) *record {
	r := &record{name: name, title: fmt.Sprintf("t%d", rng.Intn(5))}
	for _, c := range poolColls {
		if rng.Intn(3) == 0 {
			r.colls = append(r.colls, c)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.nested = append(r.nested, fmt.Sprintf("v%d", rng.Intn(4)))
	}
	return r
}

// edit applies one random content- or byte-level edit.
func (m *editModel) edit(rng *rand.Rand) {
	pickRec := func() *record {
		if len(m.recs) == 0 {
			return nil
		}
		return m.recs[rng.Intn(len(m.recs))]
	}
	switch rng.Intn(9) {
	case 0: // retitle
		if r := pickRec(); r != nil {
			r.title = fmt.Sprintf("t%d", rng.Intn(5))
		}
	case 1: // add a record, often under a name another source uses
		if name := poolNames[rng.Intn(len(poolNames))]; !m.has(name) {
			m.recs = append(m.recs, newRecord(rng, name))
		}
	case 2: // remove a record and the references to it
		if len(m.recs) > 1 {
			i := rng.Intn(len(m.recs))
			gone := m.recs[i].name
			m.recs = append(m.recs[:i:i], m.recs[i+1:]...)
			for _, r := range m.recs {
				kept := r.refs[:0:0]
				for _, ref := range r.refs {
					if ref != gone {
						kept = append(kept, ref)
					}
				}
				r.refs = kept
			}
		}
	case 3: // toggle a collection membership
		if r := pickRec(); r != nil {
			c := poolColls[rng.Intn(len(poolColls))]
			kept := r.colls[:0:0]
			for _, have := range r.colls {
				if have != c {
					kept = append(kept, have)
				}
			}
			if len(kept) == len(r.colls) {
				kept = append(kept, c)
			}
			r.colls = kept
		}
	case 4: // add or drop a reference
		if r := pickRec(); r != nil {
			if len(r.refs) > 0 && rng.Intn(2) == 0 {
				r.refs = r.refs[1:]
			} else {
				r.refs = append(r.refs, pickRec().name)
			}
		}
	case 5: // add, drop or change a nested object (an author)
		if r := pickRec(); r != nil {
			switch {
			case len(r.nested) > 0 && rng.Intn(3) == 0:
				r.nested = r.nested[1:]
			case len(r.nested) > 0 && rng.Intn(2) == 0:
				r.nested[rng.Intn(len(r.nested))] = fmt.Sprintf("v%d", rng.Intn(4))
			default:
				r.nested = append(r.nested, fmt.Sprintf("v%d", rng.Intn(4)))
			}
		}
	case 6: // declare or drop an empty collection
		if len(m.extra) > 0 {
			m.extra = nil
		} else {
			m.extra = []string{"E"}
		}
	case 7: // reorder records: same content, other bytes and OID order
		rng.Shuffle(len(m.recs), func(i, j int) { m.recs[i], m.recs[j] = m.recs[j], m.recs[i] })
	default: // whitespace only
		m.pad += strings.Repeat(" ", 1+rng.Intn(2)) + "\n"
	}
}

// canonical renders a graph up to the OIDs of unnamed nodes: every
// object keyed by name has its sorted edges listed, and unnamed
// targets (Key "&...") are expanded in place, with back-references on
// the current path written as "^depth". Collections list their
// members the same way.
func canonical(g *graph.Graph) string {
	var expand func(id graph.OID, path []graph.OID) string
	val := func(v graph.Value, path []graph.OID) string {
		if !v.IsNode() {
			return v.String()
		}
		if key := g.Key(v.OID()); !strings.HasPrefix(key, "&") {
			return key
		}
		for i, p := range path {
			if p == v.OID() {
				return fmt.Sprintf("^%d", len(path)-i)
			}
		}
		return expand(v.OID(), path)
	}
	expand = func(id graph.OID, path []graph.OID) string {
		path = append(path, id)
		var edges []string
		for _, e := range g.Out(id) {
			edges = append(edges, e.Label+"="+val(e.To, path))
		}
		sort.Strings(edges)
		return "{" + strings.Join(edges, " ") + "}"
	}
	var lines []string
	for _, id := range g.Nodes() {
		if key := g.Key(id); !strings.HasPrefix(key, "&") {
			lines = append(lines, key+" "+expand(id, nil))
		}
	}
	for _, c := range g.Collections() {
		var members []string
		for _, v := range g.Collection(c) {
			members = append(members, val(v, nil))
		}
		sort.Strings(members)
		lines = append(lines, "collection "+c+" "+strings.Join(members, " | "))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRefreshDeltaProperty drives seeded random edit scripts over 3–5
// merged sources — names shared across sources, ordered-author BibTeX
// with unnamed nodes, references, nested objects, collection changes,
// reorderings and whitespace-only edits, several sources per step or
// none — and checks after every refresh that:
//   - the reported warehouse delta deep-equals the full diff of the
//     previous and the committed warehouse, although only re-wrapped
//     sources were diffed;
//   - the committed warehouse equals, up to unnamed OIDs, the warehouse
//     a fresh mediator builds over the same bytes.
func TestRefreshDeltaProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(repository.New(""), "W")
		models := make([]*editModel, 3+rng.Intn(3))
		for i := range models {
			md := &editModel{bibtex: i == 1}
			for j := 1 + rng.Intn(4); j > 0; j-- {
				if name := poolNames[rng.Intn(len(poolNames))]; !md.has(name) {
					md.recs = append(md.recs, newRecord(rng, name))
				}
			}
			models[i] = md
		}
		addSources := func(m *Mediator) {
			for i, md := range models {
				var w wrapper.Wrapper = wrapper.DataDef{}
				if md.bibtex {
					w = wrapper.BibTeX{OrderedAuthors: true}
				}
				md := md
				m.AddSourceDynamic(&Source{Name: fmt.Sprintf("s%d", i), Wrapper: w,
					Fetch: func() (string, error) { return md.text(), nil }})
			}
		}
		addSources(m)
		prev, err := m.Refresh()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for step := 0; step < 25; step++ {
			for _, md := range models {
				if rng.Intn(3) == 0 {
					md.edit(rng)
				}
			}
			wh, r, err := m.RefreshWithReport()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !r.Ok() {
				t.Fatalf("seed %d step %d: %s", seed, step, r.Summary())
			}
			if want := graph.DiffScope(prev, wh, nil); !reflect.DeepEqual(r.Warehouse, want) {
				t.Fatalf("seed %d step %d: reported delta\n  %+v\nfull diff\n  %+v", seed, step, r.Warehouse, want)
			}
			scratch := New(repository.New(""), "W")
			addSources(scratch)
			fresh, err := scratch.Refresh()
			if err != nil {
				t.Fatalf("seed %d step %d: fresh mediator: %v", seed, step, err)
			}
			if got, want := canonical(wh), canonical(fresh); got != want {
				t.Fatalf("seed %d step %d: committed warehouse\n%s\nfresh mediator's\n%s", seed, step, got, want)
			}
			prev = wh
		}
	}
}
