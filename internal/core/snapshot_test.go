package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/workload"
)

// TestResultStaysAsBuilt: a result is a snapshot of the data it was
// built from. Readers walk prev's data and site graphs and take its
// provenance while rounds of copy, edit, SetDataGraph and Rebuild run;
// afterwards prev's graphs dump as they did right after the build, and
// its provenance still names the old title. Run it under -race, where
// a write to a graph a reader holds is a reported race.
func TestResultStaysAsBuilt(t *testing.T) {
	const rounds = 10
	b := bibBuilder(t, 12)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dataDump, siteDump := prev.DataGraph.DumpString(), prev.SiteGraph.DumpString()
	pub, ok := prev.DataGraph.NodeByName("pub3")
	if !ok {
		t.Fatal("pub3 missing")
	}
	title, ok := prev.DataGraph.First(pub, "title")
	if !ok {
		t.Fatal("pub3 has no title")
	}
	// namesTitle reports whether prev's provenance of pub3's abstract
	// page names the title prev was built with.
	namesTitle := func() error {
		prov, err := b.Provenance(prev)
		if err != nil {
			return err
		}
		pp, ok := prov.Page("AbstractPage(pub3)")
		if !ok {
			return fmt.Errorf("no provenance for AbstractPage(pub3)")
		}
		for _, tuple := range pp.Tuples {
			if tuple["v"] == title {
				return nil
			}
		}
		return fmt.Errorf("provenance tuples %v do not name the title %s", pp.Tuples, title)
	}
	if err := namesTitle(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	reader := func(read func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(3)
	go reader(func() error {
		if prev.DataGraph.DumpString() != dataDump {
			return fmt.Errorf("prev's data graph changed")
		}
		return nil
	})
	go reader(func() error {
		if prev.SiteGraph.DumpString() != siteDump {
			return fmt.Errorf("prev's site graph changed")
		}
		return nil
	})
	go reader(namesTitle)
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()

	data, cur := prev.DataGraph, prev
	for i := 0; i < rounds; i++ {
		data = copyOf(data)
		retitle(t, data, "pub3", fmt.Sprintf("Round %d", i))
		if i%3 == 2 {
			// Drop a publication too, edges and memberships with it.
			if oid, ok := data.NodeByName(fmt.Sprintf("pub%d", 4+i/3)); ok {
				data.RemoveNode(oid)
			}
		}
		b.SetDataGraph(data)
		res, err := b.Rebuild(cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental.Mode != "selective" {
			t.Fatalf("round %d: %s, want selective", i, res.Incremental.Summary())
		}
		cur = res
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := prev.DataGraph.DumpString(); got != dataDump {
		t.Error("prev's data graph changed")
	}
	if got := prev.SiteGraph.DumpString(); got != siteDump {
		t.Error("prev's site graph changed")
	}
	if err := namesTitle(); err != nil {
		t.Error(err)
	}
	if v, _ := cur.DataGraph.First(pub, "title"); v != graph.Str(fmt.Sprintf("Round %d", rounds-1)) {
		t.Errorf("the last rebuild's data titles pub3 %s", v)
	}
}

// TestResultStaysAsBuiltMediated is TestResultStaysAsBuilt on the
// mediator path, where the next refresh's warehouse shares the records
// of the committed one and of the unchanged sources. Readers walk
// prev's data graph, the source graphs committed with it and the
// repository's current source graphs while rounds each re-wrap one of
// four BibTeX sources and Rebuild; afterwards prev's data graph and
// its sources dump as they did right after the build. Run it under
// -race, where a write to a graph a reader holds is a reported race.
func TestResultStaysAsBuiltMediated(t *testing.T) {
	const rounds, sources = 10, 4
	spec := workload.BibliographySpec()
	b := NewBuilder("homepage")
	var mu sync.Mutex
	contents := make([]string, sources)
	for i := range contents {
		// Entry keys of their own per source: s0pub0, s1pub0, ...
		contents[i] = strings.ReplaceAll(workload.BibliographyBibTeX(6, int64(i)), "{pub", fmt.Sprintf("{s%dpub", i))
		i := i
		if err := b.AddSourceFunc(fmt.Sprintf("s%d.bib", i), "bibtex", func() (string, error) {
			mu.Lock()
			defer mu.Unlock()
			return contents[i], nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetIndex(spec.Index)
	b.SetRootCollection(spec.RootCollection)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	held := []*graph.Graph{prev.DataGraph}
	for i := 0; i < sources; i++ {
		g, ok := b.repo.Graph(fmt.Sprintf("src:s%d.bib", i))
		if !ok {
			t.Fatalf("source s%d.bib is not in the repository", i)
		}
		held = append(held, g)
	}
	dumps := make([]string, len(held))
	for i, g := range held {
		dumps[i] = g.DumpString()
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	reader := func(read func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go reader(func() error {
		for i, g := range held {
			if g.DumpString() != dumps[i] {
				return fmt.Errorf("graph %s changed", g.Name())
			}
		}
		return nil
	})
	go reader(func() error {
		for i := 0; i < sources; i++ {
			if g, ok := b.repo.Graph(fmt.Sprintf("src:s%d.bib", i)); ok {
				g.Edges(func(graph.Edge) bool { return true })
			}
		}
		return nil
	})
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()

	cur := prev
	for i := 0; i < rounds; i++ {
		mu.Lock()
		s := i % sources
		contents[s] = strings.Replace(contents[s], "title = {", fmt.Sprintf("title = {Round %d ", i), 1)
		mu.Unlock()
		res, err := b.Rebuild(cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental.Mode != "selective" {
			t.Fatalf("round %d: %s, want selective", i, res.Incremental.Summary())
		}
		if res.DataGraph == cur.DataGraph {
			t.Fatalf("round %d: the refresh kept the warehouse", i)
		}
		cur = res
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, g := range held {
		if g.DumpString() != dumps[i] {
			t.Errorf("graph %s changed", g.Name())
		}
	}
	// The last round retitled the first entry of its source.
	last := fmt.Sprintf("s%dpub0", (rounds-1)%sources)
	pub, ok := cur.DataGraph.NodeByName(last)
	if !ok {
		t.Fatalf("%s missing", last)
	}
	if v, _ := cur.DataGraph.First(pub, "title"); !strings.HasPrefix(v.Text(), fmt.Sprintf("Round %d ", rounds-1)) {
		t.Errorf("the last rebuild's data titles %s %s", last, v)
	}
}
