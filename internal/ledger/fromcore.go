package ledger

import (
	"strings"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/mediator"
)

func ms(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1000 }

// DeltaSizeOf summarizes a graph delta; nil or empty deltas map to
// nil (omitted from the JSON).
func DeltaSizeOf(d *graph.Delta) *DeltaSize {
	if d == nil || d.Empty() {
		return nil
	}
	return &DeltaSize{
		Added:       len(d.AddedObjects),
		Removed:     len(d.RemovedObjects),
		Changed:     len(d.ChangedObjects),
		Labels:      len(d.TouchedLabels),
		Collections: len(d.TouchedCollections),
	}
}

// SourceRecords lifts per-source fetch outcomes from a refresh
// report.
func SourceRecords(rep *mediator.RefreshReport) []SourceRecord {
	if rep == nil || len(rep.Sources) == 0 {
		return nil
	}
	out := make([]SourceRecord, 0, len(rep.Sources))
	for _, s := range rep.Sources {
		r := SourceRecord{
			Name:      s.Name,
			State:     s.State.String(),
			Unchanged: s.Unchanged,
			Attempts:  s.Attempts,
			Delta:     DeltaSizeOf(s.Delta),
		}
		if s.Err != nil {
			r.Err = s.Err.Error()
		}
		if !s.StaleSince.IsZero() && !rep.At.IsZero() && rep.At.After(s.StaleSince) {
			r.StaleSeconds = rep.At.Sub(s.StaleSince).Seconds()
		}
		out = append(out, r)
	}
	return out
}

// FromResult lifts one build/rebuild result into a ledger entry. The
// freshness stamp is the caller's job (StampFreshness) — only the
// caller knows when the new result actually became servable.
func FromResult(res *core.Result, trigger string) Entry {
	e := Entry{
		BuildID:    res.Trace.ID,
		Time:       res.BuiltAt,
		Trigger:    trigger,
		Mode:       "full",
		TotalMs:    ms(res.Stats.TotalTime),
		TotalAlloc: res.Stats.TotalAlloc,
	}
	if root := res.Trace.Root(); root != nil {
		// Root span names are "build <site>" / "rebuild <site>".
		if _, site, ok := strings.Cut(root.Name, " "); ok {
			e.Site = site
		}
	}
	e.Pages = PageRecord{
		Total:    res.Stats.Pages,
		Rendered: res.Stats.Pages - res.Stats.PagesReused,
		Reused:   res.Stats.PagesReused,
		Pruned:   res.Stats.PagesPruned,
	}
	e.Sources = SourceRecords(res.Refresh)
	if res.Refresh != nil {
		e.Data = DeltaSizeOf(res.Refresh.Warehouse)
	}
	if info := res.Incremental; info != nil {
		if info.Mode != "" {
			e.Mode = info.Mode
		}
		if e.Data == nil {
			e.Data = DeltaSizeOf(info.Data)
		}
		e.ETagChurn = len(info.Invalidated)
		e.Invalidated = info.Invalidated
	}
	stages := []StageRecord{
		{Name: "mediate", WallMs: ms(res.Stats.MediationTime), AllocBytes: res.Stats.MediationAlloc},
		{Name: "query", WallMs: ms(res.Stats.QueryTime), AllocBytes: res.Stats.QueryAlloc},
		{Name: "verify", WallMs: ms(res.Stats.VerifyTime), AllocBytes: res.Stats.VerifyAlloc},
		{Name: "generate", WallMs: ms(res.Stats.GenerateTime), AllocBytes: res.Stats.GenerateAlloc},
	}
	for _, s := range stages {
		if s.WallMs > 0 || s.AllocBytes > 0 {
			e.Stages = append(e.Stages, s)
		}
	}
	return e
}
