// Incremental regeneration: re-render only the pages a change can
// reach, adopt the rest from the previous site, and report what
// happened so callers can prune orphaned output files and feed
// telemetry. Adoption is keyed on symbolic page names — the only
// identity stable across site-graph re-evaluations — and falls back to
// a full render whenever that identity is unavailable or a path
// assignment could differ, so the result is always byte-identical to
// Generate.
package sitegen

import (
	"context"
	"path/filepath"
	"sort"
	"strings"

	"strudel/internal/fsx"
	"strudel/internal/graph"
)

// DeltaStats reports what Regenerate did.
type DeltaStats struct {
	// Rendered and Reused count pages re-rendered versus carried over
	// from the previous site.
	Rendered, Reused int
	// RenderedPaths lists the re-rendered pages' paths, sorted.
	RenderedPaths []string
	// PrunedPaths lists previous-site paths absent from the new site,
	// sorted; SyncTo removes the corresponding files.
	PrunedPaths []string
	// Full is set when adoption was not provably safe and every page
	// rendered. Reason says why: "no previous site", "unnamed page
	// object", "path collision" or "path shift for <page>".
	Full   bool
	Reason string
}

// Regenerate renders the generator's site graph against prev, the site
// rendered before a change, re-rendering only the page objects in cone
// and adopting every other page of prev by name. An adopted page keeps
// its bytes, title and entity tag: its closure avoided the change, so
// a full render would produce the same bytes and therefore the same tag.
//
// The contract: cone over-approximates every object whose page — or
// whose linking pages — could have changed since prev was rendered,
// typically the site graph's reverse-reachability cone of the objects
// the change touched. A page object outside the cone then kept its
// name, its template association and therefore its path, so prev's
// assignment is adopted wholesale (O(pages) map work) instead of
// re-deriving template selection for every node the way Generate does;
// only cone objects get fresh selection, paths and renders. Each
// adopted page is re-keyed to the node now bearing its name, so the
// site graph may be a fresh evaluation whose objects keep prev's names.
// A page whose OID did not move is shared as-is: pages are immutable
// once rendered, and only freshly rendered pages are written to.
//
// When name-keyed adoption is not provably safe, every page renders
// exactly as Generate would and DeltaStats.Full names the reason: no
// previous site, an unnamed page object, a path collision in prev or
// in the new assignment (suffixes follow OID order), or a cone page
// whose path moved (links to it in adopted pages would go stale).
func (g *Generator) Regenerate(ctx context.Context, prev *Site, cone map[graph.OID]struct{}) (*Site, *DeltaStats, error) {
	st := &DeltaStats{}
	site, render, reason := g.adopt(prev, cone)
	if reason != "" {
		site, render = g.assignPaths()
		st.Full, st.Reason = true, reason
	}
	st.Rendered = len(render)
	st.Reused = len(site.Pages) - len(render)
	for _, oid := range render {
		st.RenderedPaths = append(st.RenderedPaths, site.PathOf[oid])
	}
	sort.Strings(st.RenderedPaths)
	st.PrunedPaths = prunedPaths(prev, site)
	if err := g.renderPages(ctx, site, render); err != nil {
		return nil, nil, err
	}
	return site, st, nil
}

// adopt carries prev's pages outside the cone into a new site and
// assigns paths to the cone's page objects, returning the objects left
// to render in OID order. A non-empty reason means adoption is unsafe
// and the partial site must be discarded.
func (g *Generator) adopt(prev *Site, cone map[graph.OID]struct{}) (*Site, []graph.OID, string) {
	switch {
	case prev == nil:
		return nil, nil, "no previous site"
	case prev.Collisions != 0:
		return nil, nil, "path collision"
	}
	site := &Site{Pages: map[string]*Page{}, PathOf: map[graph.OID]string{}}
	var render []graph.OID
	// Previous paths of cone pages, for path-shift detection below.
	prevPath := map[string]string{}
	for _, p := range prev.Pages {
		if p.Name == "" {
			return nil, nil, "unnamed page object"
		}
		oid, ok := g.site.NodeByName(p.Name)
		if !ok {
			continue // object removed; prunedPaths picks the page up
		}
		if _, touched := cone[oid]; touched {
			prevPath[p.Name] = p.Path
			continue // re-derived below
		}
		np := p
		if oid != p.OID || p.HTML == "" {
			// The name string the site graph holds, not prev's copy: a
			// re-evaluated graph would otherwise keep both alive.
			np = &Page{Path: p.Path, OID: oid, Name: g.site.NodeName(oid), HTML: p.HTML, Title: p.Title, ETag: p.ETag}
		}
		site.Pages[p.Path] = np
		site.PathOf[oid] = p.Path
		if p.HTML == "" {
			render = append(render, oid) // never rendered: do it now
		}
	}
	coneOIDs := make([]graph.OID, 0, len(cone))
	for oid := range cone {
		coneOIDs = append(coneOIDs, oid)
	}
	sort.Slice(coneOIDs, func(i, j int) bool { return coneOIDs[i] < coneOIDs[j] })
	for _, oid := range coneOIDs {
		if !g.isPage(oid) {
			continue
		}
		name := g.site.NodeName(oid)
		if name == "" {
			return nil, nil, "unnamed page object"
		}
		path := g.pagePath(oid)
		if pp, ok := prevPath[name]; ok && pp != path {
			return nil, nil, "path shift for " + name
		}
		if _, taken := site.Pages[path]; taken {
			return nil, nil, "path collision"
		}
		site.Pages[path] = &Page{Path: path, OID: oid, Name: name}
		site.PathOf[oid] = path
		render = append(render, oid)
	}
	sort.Slice(render, func(i, j int) bool { return render[i] < render[j] })
	return site, render, ""
}

// prunedPaths lists prev's paths that the new site no longer produces.
func prunedPaths(prev, site *Site) []string {
	if prev == nil {
		return nil
	}
	var out []string
	for path := range prev.Pages {
		if _, ok := site.Pages[path]; !ok {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// SyncTo writes every page under dir like WriteTo and then deletes
// stale .html files that no current page produces, returning the
// deleted paths sorted. Only regular .html files directly under dir are
// candidates for pruning, so user assets are never touched.
func (s *Site) SyncTo(dir string) ([]string, error) {
	return s.SyncToFS(fsx.OS, dir)
}

// SyncToFS is SyncTo over an injectable filesystem. Staging remnants
// of interrupted atomic page writes (*.tmp) are also pruned.
func (s *Site) SyncToFS(fsys fsx.FS, dir string) ([]string, error) {
	if err := s.WriteToFS(fsys, dir); err != nil {
		return nil, err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var pruned []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !(strings.HasSuffix(name, ".html") || fsx.IsTempName(name)) {
			continue
		}
		if _, ok := s.Pages[name]; ok {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return pruned, err
		}
		pruned = append(pruned, name)
	}
	sort.Strings(pruned)
	return pruned, nil
}
