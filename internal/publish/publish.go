// Package publish makes site publication transactional: a reader of a
// published directory observes the complete old site or the complete
// new site, never a mix, and a crash at any write boundary — power
// loss, ENOSPC, SIGKILL — is recovered from by falling back to the
// last complete generation. This is the consistency discipline the
// paper's derived-view premise rests on: the generated site is only a
// trustworthy view of the data graph if half-updated states are
// unobservable.
//
// Layout. A published directory contains numbered generation
// directories plus a commit pointer:
//
//	site-out/
//	  CURRENT            ← "gen-7\n": the committed generation
//	  gen-6/             ← previous generation (kept for rollback)
//	  gen-7/
//	    MANIFEST.json    ← per-file SHA-256, page count, build ID
//	    index.html
//	    …pages…
//
// Publication protocol (all through an injectable fsx.FS):
//
//  1. stage the new generation into gen-<n>.tmp/: pages in sorted
//     order, then MANIFEST.json;
//  2. fsync every staged file, then the staging directory;
//  3. rename gen-<n>.tmp → gen-<n>; fsync the parent directory;
//  4. commit: atomically flip CURRENT to "gen-<n>" (temp + fsync +
//     rename + parent fsync);
//  5. prune generations older than the retention window.
//
// The rename in step 4 is the single commit point. Before it, readers
// resolve CURRENT to the old generation; after it, to the new one. A
// crash anywhere leaves either a committed old state (plus debris that
// Recover deletes) or the committed new state.
package publish

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/sitegen"
)

const (
	// ManifestName is the integrity manifest inside each generation.
	ManifestName = "MANIFEST.json"
	// CurrentName is the commit pointer file naming the live generation.
	CurrentName = "CURRENT"
	genPrefix   = "gen-"
)

// ErrNoGeneration is returned by Recover and OpenSite when a published
// directory holds no complete generation to serve.
var ErrNoGeneration = errors.New("publish: no complete generation")

// Manifest records what a generation contains, hashed so torn or
// corrupted generations are detectable.
type Manifest struct {
	// Generation is the generation number, matching the directory name.
	Generation int `json:"generation"`
	// BuildID identifies the build that produced the pages (the build
	// trace ID when available).
	BuildID string `json:"build_id,omitempty"`
	// BuiltAt is when the generation was staged (UTC).
	BuiltAt time.Time `json:"built_at"`
	// Pages is the page count, redundant with len(Files) as a
	// cheap structural check.
	Pages int `json:"pages"`
	// Files maps each page path to the SHA-256 hex of its content.
	Files map[string]string `json:"files"`
}

// Publisher writes generations into one published directory.
type Publisher struct {
	fsys fsx.FS
	dir  string
	keep int
}

// New creates a publisher over fsys rooted at dir, retaining the last
// keep generations (minimum 1; keep <= 0 means the default of 2 — the
// live generation plus one rollback).
func New(fsys fsx.FS, dir string, keep int) *Publisher {
	if fsys == nil {
		fsys = fsx.OS
	}
	if keep <= 0 {
		keep = 2
	}
	return &Publisher{fsys: fsys, dir: dir, keep: keep}
}

// Dir returns the published directory.
func (p *Publisher) Dir() string { return p.dir }

func genName(n int) string { return genPrefix + strconv.Itoa(n) }

// genNumber parses a generation directory name; ok is false for
// anything else (staging dirs, CURRENT, stray files).
func genNumber(name string) (int, bool) {
	rest, found := strings.CutPrefix(name, genPrefix)
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || genName(n) != name {
		return 0, false
	}
	return n, true
}

// hashHex is the per-file integrity hash recorded in the manifest.
func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validPagePath rejects page paths that would escape the generation
// directory or collide with the publication protocol's own files.
func validPagePath(path string) error {
	switch {
	case path == "" || path == ManifestName || path == CurrentName:
		return fmt.Errorf("publish: reserved page path %q", path)
	case strings.ContainsAny(path, `/\`) || path == "." || path == "..":
		return fmt.Errorf("publish: page path %q escapes the generation directory", path)
	case fsx.IsTempName(path):
		return fmt.Errorf("publish: page path %q uses the staging suffix", path)
	}
	return nil
}

// scan lists the generation numbers present under the published
// directory (complete or not, sorted ascending), the staging remnants,
// and what CURRENT names (-1 when absent or unparseable).
func (p *Publisher) scan() (gens []int, tmps []string, current int, err error) {
	entries, err := p.fsys.ReadDir(p.dir)
	if err != nil {
		return nil, nil, -1, err
	}
	current = -1
	for _, e := range entries {
		name := e.Name()
		if n, ok := genNumber(name); ok && e.IsDir() {
			gens = append(gens, n)
		} else if fsx.IsTempName(name) {
			tmps = append(tmps, name)
		}
	}
	sort.Ints(gens)
	if data, rerr := fsx.ReadFile(p.fsys, filepath.Join(p.dir, CurrentName)); rerr == nil {
		if n, ok := genNumber(strings.TrimSpace(string(data))); ok {
			current = n
		}
	}
	return gens, tmps, current, nil
}

// Publish writes a new generation containing files (page path →
// content), commits it, and prunes old generations. id labels the
// build in the manifest; a zero at means time.Now(). It returns the
// committed generation number. On error nothing is committed: the
// previously current generation stays live, and staging debris is
// cleaned up best-effort (Recover deletes anything left by a crash).
func (p *Publisher) Publish(files map[string]string, id string, at time.Time) (int, error) {
	if at.IsZero() {
		at = time.Now()
	}
	for path := range files {
		if err := validPagePath(path); err != nil {
			return 0, err
		}
	}
	if err := p.fsys.MkdirAll(p.dir, 0o755); err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	gens, _, current, err := p.scan()
	if err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	gen := current + 1
	if len(gens) > 0 && gens[len(gens)-1] >= gen {
		gen = gens[len(gens)-1] + 1
	}

	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Stage.
	stage := filepath.Join(p.dir, genName(gen)+".tmp")
	p.fsys.RemoveAll(stage) // stale remnant from an interrupted publish
	if err := p.fsys.MkdirAll(stage, 0o755); err != nil {
		return 0, fmt.Errorf("publish: staging generation %d: %w", gen, err)
	}
	fail := func(step string, err error) (int, error) {
		p.fsys.RemoveAll(stage)
		return 0, fmt.Errorf("publish: generation %d: %s: %w", gen, step, err)
	}
	m := Manifest{Generation: gen, BuildID: id, BuiltAt: at.UTC(), Pages: len(files), Files: make(map[string]string, len(files))}
	for _, path := range paths {
		data := []byte(files[path])
		if err := p.fsys.WriteFile(filepath.Join(stage, path), data, 0o644); err != nil {
			return fail("staging "+path, err)
		}
		m.Files[path] = hashHex(data)
	}
	mdata, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fail("encoding manifest", err)
	}
	if err := p.fsys.WriteFile(filepath.Join(stage, ManifestName), append(mdata, '\n'), 0o644); err != nil {
		return fail("staging manifest", err)
	}
	// Durability: every staged file, then the staging directory itself,
	// reaches disk before the generation becomes visible under its
	// final name.
	for _, path := range append(paths, ManifestName) {
		if err := p.fsys.Sync(filepath.Join(stage, path)); err != nil {
			return fail("fsync "+path, err)
		}
	}
	if err := p.fsys.Sync(stage); err != nil {
		return fail("fsync staging directory", err)
	}
	final := filepath.Join(p.dir, genName(gen))
	if err := p.fsys.Rename(stage, final); err != nil {
		return fail("installing generation", err)
	}
	if err := p.fsys.Sync(p.dir); err != nil {
		return 0, fmt.Errorf("publish: generation %d: fsync %s: %w", gen, p.dir, err)
	}

	// Commit point: flip CURRENT. The flip's rename can land before its
	// directory fsync fails; point CURRENT back (best effort) so a failed
	// publish never leaves the new generation live. Recover treats that
	// generation as staged but never committed.
	cur := filepath.Join(p.dir, CurrentName)
	prev, prevErr := fsx.ReadFile(p.fsys, cur)
	if err := fsx.WriteFileDurable(p.fsys, cur, []byte(genName(gen)+"\n"), 0o644); err != nil {
		switch {
		case prevErr == nil:
			fsx.WriteFileDurable(p.fsys, cur, prev, 0o644)
		case errors.Is(prevErr, fs.ErrNotExist):
			p.fsys.Remove(cur)
		}
		return 0, fmt.Errorf("publish: generation %d: committing CURRENT: %w", gen, err)
	}

	p.prune(gen)
	return gen, nil
}

// PublishSite publishes a generated site's pages.
func (p *Publisher) PublishSite(site *sitegen.Site, id string, at time.Time) (int, error) {
	files := make(map[string]string, len(site.Pages))
	for path, pg := range site.Pages {
		files[path] = pg.HTML
	}
	return p.Publish(files, id, at)
}

// prune deletes generations older than the retention window and any
// staging remnants, best-effort: pruning failures never fail a commit,
// and Recover re-attempts the cleanup on next startup. The manifest is
// removed first so a crash mid-prune leaves an obviously-torn
// directory, never a plausible-looking stale generation.
func (p *Publisher) prune(current int) {
	gens, tmps, _, err := p.scan()
	if err != nil {
		return
	}
	for _, t := range tmps {
		p.fsys.RemoveAll(filepath.Join(p.dir, t))
	}
	floor := current - p.keep + 1
	for _, n := range gens {
		if n < floor {
			dir := filepath.Join(p.dir, genName(n))
			p.fsys.Remove(filepath.Join(dir, ManifestName))
			p.fsys.RemoveAll(dir)
		}
	}
}

// GenReport is one generation's integrity verdict.
type GenReport struct {
	// Name is the directory name ("gen-7").
	Name string `json:"name"`
	// Generation is the parsed number.
	Generation int `json:"generation"`
	// Complete is true when the manifest is present, parses, agrees
	// with the directory contents, and every file hash matches.
	Complete bool `json:"complete"`
	// Pages is the manifest's page count (0 when torn before staging).
	Pages int `json:"pages"`
	// Problems lists what is wrong with a torn generation.
	Problems []string `json:"problems,omitempty"`
}

// Report is the outcome of Verify over one published directory.
type Report struct {
	// Dir is the verified directory.
	Dir string `json:"dir"`
	// Current names the generation CURRENT points at ("" when the
	// pointer is missing or unparseable).
	Current string `json:"current,omitempty"`
	// Generations reports every generation directory found, ascending.
	Generations []GenReport `json:"generations"`
	// Staging lists leftover *.tmp entries (debris from an interrupted
	// publish; Recover deletes them).
	Staging []string `json:"staging,omitempty"`
	// Problems lists directory-level defects: missing or dangling
	// CURRENT, torn generations, no complete generation.
	Problems []string `json:"problems,omitempty"`
}

// OK reports whether the directory is intact: CURRENT names a complete
// generation and every generation present verifies against its
// manifest. Staging remnants are not defects — a publish may be in
// flight — but torn generations are: they mean an interrupted publish
// left debris Recover has not cleaned yet.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Summary renders the report for humans, one line per generation.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.Dir)
	for _, g := range r.Generations {
		status := "complete"
		if !g.Complete {
			status = "TORN (" + strings.Join(g.Problems, "; ") + ")"
		}
		marker := "  "
		if g.Name == r.Current {
			marker = "* "
		}
		fmt.Fprintf(&b, "%s%s: %d pages, %s\n", marker, g.Name, g.Pages, status)
	}
	for _, s := range r.Staging {
		fmt.Fprintf(&b, "  %s: staging remnant\n", s)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  problem: %s\n", p)
	}
	if r.OK() {
		fmt.Fprintf(&b, "  ok: CURRENT -> %s\n", r.Current)
	}
	return b.String()
}

// verifyGen checks one generation directory against its manifest.
func verifyGen(fsys fsx.FS, dir, name string) GenReport {
	n, _ := genNumber(name)
	g := GenReport{Name: name, Generation: n}
	gdir := filepath.Join(dir, name)
	mdata, err := fsx.ReadFile(fsys, filepath.Join(gdir, ManifestName))
	if err != nil {
		g.Problems = append(g.Problems, "manifest missing: "+err.Error())
		return g
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		g.Problems = append(g.Problems, "manifest corrupt: "+err.Error())
		return g
	}
	g.Pages = m.Pages
	if m.Generation != n {
		g.Problems = append(g.Problems, fmt.Sprintf("manifest names generation %d", m.Generation))
	}
	if m.Pages != len(m.Files) {
		g.Problems = append(g.Problems, fmt.Sprintf("manifest page count %d != %d listed files", m.Pages, len(m.Files)))
	}
	// Every listed file must exist with matching content hash.
	paths := make([]string, 0, len(m.Files))
	for path := range m.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := fsx.ReadFile(fsys, filepath.Join(gdir, path))
		if err != nil {
			g.Problems = append(g.Problems, path+": "+err.Error())
			continue
		}
		if got := hashHex(data); got != m.Files[path] {
			g.Problems = append(g.Problems, path+": content hash mismatch")
		}
	}
	// No unexpected extras: a file the manifest does not vouch for is
	// not part of the published site.
	if entries, err := fsys.ReadDir(gdir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if name == ManifestName {
				continue
			}
			if _, listed := m.Files[name]; !listed {
				g.Problems = append(g.Problems, name+": not in manifest")
			}
		}
	}
	g.Complete = len(g.Problems) == 0
	return g
}

// Verify checks the integrity of a published directory without
// modifying it: every generation against its manifest, and the CURRENT
// pointer against the generations found. It errors only when the
// directory itself cannot be read; integrity defects land in the
// report.
func Verify(fsys fsx.FS, dir string) (*Report, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("publish: verifying %s: %w", dir, err)
	}
	r := &Report{Dir: dir}
	complete := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if _, ok := genNumber(name); ok && e.IsDir() {
			g := verifyGen(fsys, dir, name)
			complete[name] = g.Complete
			r.Generations = append(r.Generations, g)
		} else if fsx.IsTempName(name) {
			r.Staging = append(r.Staging, name)
		}
	}
	sort.Slice(r.Generations, func(i, j int) bool {
		return r.Generations[i].Generation < r.Generations[j].Generation
	})
	for _, g := range r.Generations {
		if !g.Complete {
			r.Problems = append(r.Problems, g.Name+": generation torn")
		}
	}
	data, err := fsx.ReadFile(fsys, filepath.Join(dir, CurrentName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		r.Problems = append(r.Problems, "CURRENT missing")
	case err != nil:
		r.Problems = append(r.Problems, "CURRENT unreadable: "+err.Error())
	default:
		name := strings.TrimSpace(string(data))
		if _, ok := genNumber(name); !ok {
			r.Problems = append(r.Problems, fmt.Sprintf("CURRENT names %q, not a generation", name))
			break
		}
		r.Current = name
		if done, found := complete[name]; !found {
			r.Problems = append(r.Problems, "CURRENT -> "+name+": generation missing")
		} else if !done {
			r.Problems = append(r.Problems, "CURRENT -> "+name+": generation torn")
		}
	}
	return r, nil
}

// RecoverReport describes what Recover did.
type RecoverReport struct {
	// Current is the generation now live ("gen-7").
	Current string `json:"current"`
	// Removed lists deleted entries: staging remnants, torn
	// generations, and uncommitted generations newer than CURRENT.
	Removed []string `json:"removed,omitempty"`
	// Repointed is true when CURRENT had to be rewritten to the newest
	// complete generation (it was missing, unparseable, or dangling).
	Repointed bool `json:"repointed"`
}

// Recover makes a published directory servable after a crash. It
// deletes staging remnants and torn generations, discards complete but
// never-committed generations newer than CURRENT (they were staged but
// the publication did not reach its commit point), and — when CURRENT
// itself is missing or points at a torn or deleted generation —
// rewrites it durably to the newest complete generation. It returns
// ErrNoGeneration when nothing complete survives to serve.
//
// Recover must not run concurrently with Publish: it is a startup
// operation, and a publication between its scan and its cleanup could
// be discarded as "uncommitted".
func Recover(fsys fsx.FS, dir string) (*RecoverReport, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	v, err := Verify(fsys, dir)
	if err != nil {
		return nil, err
	}
	rep := &RecoverReport{}
	remove := func(name string) error {
		if err := fsys.RemoveAll(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("publish: recovering %s: removing %s: %w", dir, name, err)
		}
		rep.Removed = append(rep.Removed, name)
		return nil
	}
	for _, t := range v.Staging {
		if err := remove(t); err != nil {
			return nil, err
		}
	}
	var complete []GenReport
	for _, g := range v.Generations {
		if !g.Complete {
			if err := remove(g.Name); err != nil {
				return nil, err
			}
			continue
		}
		complete = append(complete, g)
	}
	// Is CURRENT still standing on a complete generation?
	currentOK := false
	if v.Current != "" {
		for _, g := range complete {
			if g.Name == v.Current {
				currentOK = true
			}
		}
	}
	if currentOK {
		rep.Current = v.Current
		cur, _ := genNumber(v.Current)
		// Staged-but-never-committed generations sit above CURRENT;
		// the publication that wrote them did not reach its commit
		// point, so by the old-or-new contract they are "new" states
		// that never happened.
		for _, g := range complete {
			if g.Generation > cur {
				if err := remove(g.Name); err != nil {
					return nil, err
				}
			}
		}
		return rep, nil
	}
	if len(complete) == 0 {
		return nil, fmt.Errorf("publish: recovering %s: %w", dir, ErrNoGeneration)
	}
	// Fall back to the newest complete generation and commit it.
	last := complete[len(complete)-1]
	if err := fsx.WriteFileDurable(fsys, filepath.Join(dir, CurrentName), []byte(last.Name+"\n"), 0o644); err != nil {
		return nil, fmt.Errorf("publish: recovering %s: rewriting CURRENT: %w", dir, err)
	}
	rep.Current = last.Name
	rep.Repointed = true
	return rep, nil
}

// Current resolves the committed generation directory of a published
// dir, verifying nothing: readers wanting integrity use OpenSite.
func Current(fsys fsx.FS, dir string) (string, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	data, err := fsx.ReadFile(fsys, filepath.Join(dir, CurrentName))
	if err != nil {
		return "", fmt.Errorf("publish: %w", err)
	}
	name := strings.TrimSpace(string(data))
	if _, ok := genNumber(name); !ok {
		return "", fmt.Errorf("publish: CURRENT names %q, not a generation", name)
	}
	return filepath.Join(dir, name), nil
}

// OpenSite loads the committed generation as a servable site, checking
// every page against the manifest hashes while reading — a torn or
// tampered generation is refused, never served. The returned site has
// Pages and Paths only (OIDs and symbolic names are not persisted).
func OpenSite(fsys fsx.FS, dir string) (*sitegen.Site, *Manifest, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	gdir, err := Current(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	mdata, err := fsx.ReadFile(fsys, filepath.Join(gdir, ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("publish: opening %s: %w", gdir, err)
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return nil, nil, fmt.Errorf("publish: opening %s: manifest corrupt: %w", gdir, err)
	}
	site := &sitegen.Site{Pages: make(map[string]*sitegen.Page, len(m.Files)), PathOf: map[graph.OID]string{}}
	for path, want := range m.Files {
		data, err := fsx.ReadFile(fsys, filepath.Join(gdir, path))
		if err != nil {
			return nil, nil, fmt.Errorf("publish: opening %s: %w", gdir, err)
		}
		if hashHex(data) != want {
			return nil, nil, fmt.Errorf("publish: opening %s: %s: content hash mismatch", gdir, path)
		}
		site.Pages[path] = &sitegen.Page{Path: path, HTML: string(data)}
	}
	return site, &m, nil
}
