package main

import (
	"math"
	"sort"
	"time"
)

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (0 when v is empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// p50 is the median of one field over cycles.
func p50(cycles []*cycleStats, f func(*cycleStats) float64) float64 {
	v := make([]float64, len(cycles))
	for i, c := range cycles {
		v[i] = f(c)
	}
	return median(v)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics are the traced phase's per-layer numbers: per edit
// cycle medians unless named otherwise, each measured from outside the
// layer (timed calls, returned Stats and traces, counting filesystem,
// edge and cache counters). A layer a workload does not exercise reads
// 0. The tracing overhead compares the traced phase with the untraced
// one of the same run.
func layerMetrics(w *workloadDef, p, plain *phase) map[string]metric {
	e, n := p.edits, p.noops
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("mediator.fetch_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.fetch) }))
	put("mediator.fetch_bytes", "bytes", p50(e, func(c *cycleStats) float64 { return float64(c.fetchBytes) }))
	if w.dynamic {
		// RebuildDynamic returns no trace to split mediation from
		// Decompose and AdoptCache; a noop refresh is mediation alone.
		med := p50(n, func(c *cycleStats) float64 { return ms(c.rebuildDynamic - c.fetch) })
		put("mediator.ms", "ms", med)
		put("mediator.noop_ms", "ms", med)
	} else {
		put("mediator.ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.mediator) }))
		put("mediator.noop_ms", "ms", p50(n, func(c *cycleStats) float64 { return ms(c.mediator) }))
	}
	put("mediator.sources_changed_ratio", "ratio", p50(e, func(c *cycleStats) float64 { return c.sourcesChanged }))
	put("mediator.delta_objects", "count", p50(e, func(c *cycleStats) float64 { return float64(c.deltaObjects) }))

	put("struql.ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.query) }))
	put("struql.bindings", "count", p50(e, func(c *cycleStats) float64 { return float64(c.bindings) }))
	put("schema.verify_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.verify) }))
	put("core.diff_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.diff) }))
	put("sitegen.ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.generate) }))
	put("sitegen.pages_rendered", "count", p50(e, func(c *cycleStats) float64 { return float64(c.rendered) }))
	put("sitegen.etags_changed", "count", p50(e, func(c *cycleStats) float64 { return float64(len(c.invalidated)) }))
	put("sitegen.useful_render_ratio", "ratio", p50(e, func(c *cycleStats) float64 {
		return ratio(float64(len(c.invalidated)), float64(c.rendered))
	}))
	put("core.alloc_mb", "MB", p50(e, func(c *cycleStats) float64 { return float64(c.allocBytes) / 1e6 }))
	put("core.rebuild_dynamic_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.rebuildDynamic) }))

	put("publish.ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.publish) }))
	put("publish.files_written", "count", p50(e, func(c *cycleStats) float64 { return float64(c.pubIO.Files) }))
	put("publish.bytes_written", "bytes", p50(e, func(c *cycleStats) float64 { return float64(c.pubIO.Bytes) }))
	put("publish.fsyncs", "count", p50(e, func(c *cycleStats) float64 { return float64(c.pubIO.Fsyncs) }))
	put("publish.renames", "count", p50(e, func(c *cycleStats) float64 { return float64(c.pubIO.Renames) }))
	put("publish.removes", "count", p50(e, func(c *cycleStats) float64 { return float64(c.pubIO.Removes) }))
	put("publish.useful_write_ratio", "ratio", p50(e, func(c *cycleStats) float64 {
		return ratio(float64(len(c.invalidated)), float64(c.pubIO.Files))
	}))
	put("ledger.ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.ledger) }))
	put("ledger.bytes_written", "bytes", p50(e, func(c *cycleStats) float64 { return float64(c.ledIO.Bytes) }))
	put("ledger.fsyncs", "count", p50(e, func(c *cycleStats) float64 { return float64(c.ledIO.Fsyncs) }))

	put("server.swap_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.swap) }))
	put("server.rematerialized", "count", p50(e, func(c *cycleStats) float64 { return float64(c.rematerialized) }))
	put("server.first_get_us", "us", median(p.firstGet))
	put("server.flush_ms", "ms", p50(e, func(c *cycleStats) float64 { return ms(c.flush) }))
	put("server.hot_dropped", "count", p50(e, func(c *cycleStats) float64 { return float64(c.hotDropped) }))
	sv := p.serve
	put("server.hit_ratio", "ratio", ratio(float64(sv.hits), float64(sv.requests)))
	put("server.cold_ratio", "ratio", ratio(float64(sv.cold), float64(sv.requests)))
	put("server.alloc_kb_per_req", "KB", ratio(float64(sv.allocBytes)/1e3, float64(p.requests)))
	put("server.rerank_ms", "ms", median(sv.rerank))
	put("server.promotions", "count", median(sv.promotions))

	put("incremental.cache_hit_ratio", "ratio", ratio(float64(sv.decHits), float64(sv.decHits+sv.decMisses)))
	put("incremental.cache_kept", "count", p50(e, func(c *cycleStats) float64 { return float64(c.cacheKept) }))
	put("incremental.render_us", "us", median(sv.coldLat))

	for name, v := range overhead(plain, p) {
		unit := "ms"
		if name == "serve_p50_us" {
			unit = "us"
		}
		put("tracing.overhead."+name, unit, v)
	}
	return m
}
