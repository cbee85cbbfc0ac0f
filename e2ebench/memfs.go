package main

import (
	"bytes"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory fsx.FS for the publish and ledger directories:
// the benchmark's stand-in for a tmpfs, so publication costs what the
// program does (staging, hashing, the manifest, the CURRENT flip,
// pruning) rather than what a shared VM disk's metadata journal does
// that run. Paths are cleaned and split on "/"; a leading "/" is
// ignored.
type memFS struct {
	mu   sync.Mutex
	root *memNode
}

type memNode struct {
	data []byte
	dir  bool
	kids map[string]*memNode
}

func newMemFS() *memFS { return &memFS{root: newDir()} }

func newDir() *memNode { return &memNode{dir: true, kids: map[string]*memNode{}} }

// reset drops every file, so the run's live-heap reading excludes what
// a real filesystem would keep outside the process.
func (m *memFS) reset() {
	m.mu.Lock()
	m.root = newDir()
	m.mu.Unlock()
}

func split(name string) []string {
	var out []string
	for _, p := range strings.Split(filepath.ToSlash(filepath.Clean(name)), "/") {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

func pathErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }

// lookup returns the node at name, or nil.
func (m *memFS) lookup(name string) *memNode {
	n := m.root
	for _, p := range split(name) {
		if !n.dir {
			return nil
		}
		if n = n.kids[p]; n == nil {
			return nil
		}
	}
	return n
}

// parent returns the directory holding name and name's last element.
func (m *memFS) parent(op, name string) (*memNode, string, error) {
	parts := split(name)
	if len(parts) == 0 {
		return nil, "", pathErr(op, name, fs.ErrInvalid)
	}
	dir := m.lookup(strings.Join(parts[:len(parts)-1], "/"))
	if dir == nil || !dir.dir {
		return nil, "", pathErr(op, name, fs.ErrNotExist)
	}
	return dir, parts[len(parts)-1], nil
}

func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, p := range split(path) {
		next := n.kids[p]
		if next == nil {
			next = newDir()
			n.kids[p] = next
		} else if !next.dir {
			return pathErr("mkdir", path, fs.ErrExist)
		}
		n = next
	}
	return nil
}

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, err := m.parent("open", name)
	if err != nil {
		return err
	}
	if old := dir.kids[base]; old != nil && old.dir {
		return pathErr("open", name, fs.ErrExist)
	}
	dir.kids[base] = &memNode{data: bytes.Clone(data)}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	odir, obase, err := m.parent("rename", oldpath)
	if err != nil {
		return err
	}
	n := odir.kids[obase]
	if n == nil {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	ndir, nbase, err := m.parent("rename", newpath)
	if err != nil {
		return err
	}
	if dst := ndir.kids[nbase]; dst != nil && (dst.dir != n.dir || (dst.dir && len(dst.kids) > 0)) {
		return pathErr("rename", newpath, fs.ErrExist)
	}
	delete(odir.kids, obase)
	ndir.kids[nbase] = n
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, err := m.parent("remove", name)
	if err != nil {
		return err
	}
	n := dir.kids[base]
	switch {
	case n == nil:
		return pathErr("remove", name, fs.ErrNotExist)
	case n.dir && len(n.kids) > 0:
		return pathErr("remove", name, fs.ErrExist)
	}
	delete(dir.kids, base)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dir, base, err := m.parent("remove", path); err == nil {
		delete(dir.kids, base)
	}
	return nil
}

func (m *memFS) Sync(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lookup(name) == nil {
		return pathErr("sync", name, fs.ErrNotExist)
	}
	return nil
}

func (m *memFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	if n == nil {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	if n.dir {
		return nil, pathErr("read", name, fs.ErrInvalid)
	}
	return io.NopCloser(bytes.NewReader(n.data)), nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	if n == nil || !n.dir {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	out := make([]fs.DirEntry, 0, len(n.kids))
	for kid, kn := range n.kids {
		out = append(out, fs.FileInfoToDirEntry(memInfo{kid, kn}))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	if n == nil {
		return nil, pathErr("stat", name, fs.ErrNotExist)
	}
	return memInfo{filepath.Base(name), n}, nil
}

// memInfo describes one memFS node.
type memInfo struct {
	name string
	n    *memNode
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return int64(len(i.n.data)) }
func (i memInfo) Mode() fs.FileMode {
	if i.n.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.n.dir }
func (i memInfo) Sys() any           { return nil }
