package main

import (
	"io/fs"

	"strudel/internal/fsx"
)

// fsCounts is device work as exact counts.
type fsCounts struct {
	Files, Bytes, Fsyncs, Renames, Removes int
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{c.Files - o.Files, c.Bytes - o.Bytes, c.Fsyncs - o.Fsyncs, c.Renames - o.Renames, c.Removes - o.Removes}
}

// countFS wraps the filesystem handed to publish.New and ledger.Open
// and counts what they ask of it, so device work is reported as exact
// counts. Sync is counted but not forwarded: flush latency measures the
// device, not the program. Publish and ledger each get their own
// countFS; each is used from one goroutine at a time.
type countFS struct {
	fsx.FS
	n fsCounts
}

func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.n.Files++
	c.n.Bytes += len(data)
	return c.FS.WriteFile(name, data, perm)
}

func (c *countFS) Sync(string) error {
	c.n.Fsyncs++
	return nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.n.Renames++
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) Remove(name string) error {
	c.n.Removes++
	return c.FS.Remove(name)
}

func (c *countFS) RemoveAll(path string) error {
	c.n.Removes++
	return c.FS.RemoveAll(path)
}
