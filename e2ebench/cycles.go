package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// serveRound is the closed-loop client's share of a round: requests
// back to back, each timed around the serve chain alone, with the hot
// set re-ranked every rerankEvery requests on the fake clock. Every
// burstRequests requests close a burst whose p50, p99 and throughput
// (requests per second of the burst's request time) are kept, and the
// run reports their medians over bursts.
//
// Every timed step — serve round, edit cycle, noop refresh — starts
// from a collected heap, as a refresh tick minutes after the last one
// would: a step pays for the collections its own garbage causes, not
// for the debt the step before it left.
func (s *stack) serveRound(p *phase, requests int) {
	c := s.client
	runtime.GC()
	op := s.tr.beginOp("serve")
	before := s.edge.Stats()
	var dec0 [2]int
	if s.w.dynamic {
		st := s.dyn.Load().Dec.Stats()
		dec0 = [2]int{st.CacheHits, st.CacheMisses}
	}
	lat := make([]float64, 0, burstRequests)
	var busy time.Duration // the burst's request time
	for i := range requests {
		if i > 0 && i%rerankEvery == 0 {
			s.clock.Advance(rerankStep)
			sp := s.tr.begin("server.rerank", op)
			t0 := time.Now()
			s.edge.Rerank()
			p.serve.rerank = append(p.serve.rerank, float64(time.Since(t0))/1e6)
			s.tr.end(sp)
		}
		path, inm := c.next()
		resp := c.do(path, inm)
		lat = append(lat, float64(resp.dur)/1e3)
		busy += resp.dur
		p.serve.allocBytes += resp.alloc
		if resp.cold {
			p.serve.coldLat = append(p.serve.coldLat, float64(resp.dur)/1e3)
		}
		c.check(path, resp)
		p.requests++
		if len(lat) == burstRequests {
			p.burstP50 = append(p.burstP50, quantile(lat, 0.5))
			p.burstP99 = append(p.burstP99, quantile(lat, 0.99))
			p.burstRPS = append(p.burstRPS, float64(len(lat))/busy.Seconds())
			lat, busy = lat[:0], 0
		}
	}
	s.tr.end(op)
	after := s.edge.Stats()
	p.serve.requests += after.Requests - before.Requests
	p.serve.hits += after.Hits304 + after.HitsHot - before.Hits304 - before.HitsHot
	p.serve.cold += after.Cold - before.Cold
	p.serve.promotions = append(p.serve.promotions, float64(after.Promotions-before.Promotions))
	if s.w.dynamic {
		st := s.dyn.Load().Dec.Stats()
		p.serve.decHits += st.CacheHits - dec0[0]
		p.serve.decMisses += st.CacheMisses - dec0[1]
	}
}

// editCycle edits the sources and times from the edited file being in
// place until every edited record's page answers at the edge with a
// new strong ETag and the edited bytes (added pages answer 200,
// removed ones 404). The checks run after the clock stops.
func (s *stack) editCycle(p *phase) error {
	c := s.client
	n := s.w.editSize(len(s.c.recs))
	// Old tags of the pages about to be retitled, from the snapshot.
	retitle := s.c.pickRetitle(n)
	oldTags := map[string]string{}
	for _, r := range retitle {
		e, _ := c.expect(c.pagePath(r.key))
		oldTags[r.key] = e.etag
	}
	ed, err := s.c.apply(retitle, s.w.add, s.w.remove)
	if err != nil {
		return fmt.Errorf("edit: %w", err)
	}
	var paths []string
	for _, r := range ed.retitled {
		paths = append(paths, c.pagePath(r.key))
	}
	for _, r := range ed.added {
		paths = append(paths, c.pagePath(r.key))
	}
	for _, r := range ed.removed {
		paths = append(paths, c.pagePath(r.key))
	}

	runtime.GC()
	op := s.tr.beginOp("edit")
	t0 := time.Now()
	cs, err := s.refresh(op)
	if err != nil {
		s.tr.end(op)
		c.attempted++
		c.fail("edit refresh: %v", err)
		return nil
	}
	answers := make([]response, len(paths))
	for i, path := range paths {
		sp := s.tr.begin("server.get", op)
		resp := c.do(path, "")
		s.tr.end(sp)
		resp.body = bytes.Clone(resp.body)
		answers[i] = resp
	}
	d := time.Since(t0)
	s.tr.end(op)

	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if !cs.changed {
		bad("refresh reported no change")
	}
	for i, path := range paths {
		a := answers[i]
		body := string(c.plainBody(a))
		switch {
		case i < len(ed.retitled):
			r := ed.retitled[i]
			exp, ok := c.expect(path)
			switch {
			case a.status != http.StatusOK:
				bad("edited page %s answered %d", path, a.status)
			case !ok || body != exp.body || a.etag != exp.etag:
				bad("edited page %s differs from the current snapshot", path)
			case a.etag == oldTags[r.key]:
				bad("edited page %s kept its old tag %s", path, a.etag)
			case !strings.Contains(body, r.title):
				bad("edited page %s lacks the new title %q", path, r.title)
			default:
				c.tags[path] = a.etag
			}
		case i < len(ed.retitled)+len(ed.added):
			if exp, ok := c.expect(path); a.status != http.StatusOK || !ok || body != exp.body {
				bad("added page %s answered %d or differs from the snapshot", path, a.status)
			}
		default:
			if a.status != http.StatusNotFound {
				bad("removed page %s answered %d, want 404", path, a.status)
			}
		}
	}
	c.attempted++
	if len(problems) > 0 {
		c.fail("edit cycle: %s", strings.Join(problems, "; "))
	}
	c.applyEdit(ed)
	p.edit = append(p.edit, float64(d)/1e6)
	p.edits = append(p.edits, cs)
	if len(answers) > 0 {
		p.firstGet = append(p.firstGet, float64(answers[0].dur)/1e3)
	}
	return nil
}

// noopCycle times a refresh with no source change — what every
// -refresh-interval tick pays — and then checks that no tag changed
// and a conditional GET of the last edited page, with the tag the edit
// check saw, still answers 304. (A record page, because in dynamic
// mode rendering "/" computes every page and would warm the cache the
// serve phase measures.)
func (s *stack) noopCycle(p *phase) error {
	c := s.client
	path := c.pagePath(s.c.lastEdited.key)
	tag := c.tags[path]
	runtime.GC()
	op := s.tr.beginOp("noop")
	t0 := time.Now()
	cs, err := s.refresh(op)
	d := time.Since(t0)
	s.tr.end(op)
	c.attempted++
	if err != nil {
		c.fail("noop refresh: %v", err)
		return nil
	}
	exp, _ := c.expect(path)
	resp := c.do(path, tag)
	switch {
	case cs.changed || len(cs.invalidated) > 0:
		c.fail("noop refresh changed %d tags", len(cs.invalidated))
	case tag == "" || resp.status != http.StatusNotModified || resp.etag != tag || exp.etag != tag:
		c.fail("conditional GET %s after a noop answered %d with tag %s, want 304 with %q", path, resp.status, resp.etag, tag)
	}
	p.noop = append(p.noop, float64(d)/1e6)
	p.noops = append(p.noops, cs)
	return nil
}
