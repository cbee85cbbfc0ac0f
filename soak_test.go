package strudel_test

// Soak test for incremental maintenance: one warehouse, hundreds of
// sequential random edits, one incremental rebuild per edit, never a
// fresh builder. Periodic checkpoints rebuild the identically edited
// data from scratch and require byte-identical pages and site-graph
// dump — so state carried across rebuilds (adopted pages, the journal
// baseline, the ledger) that drifts slowly is caught within one
// checkpoint window of where it went wrong. `make soak` runs the full
// 500 edits under the race detector; -short keeps a CI-sized slice of
// it.

import (
	"math/rand"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/ledger"
	"strudel/internal/workload"
)

func TestSoakDifferential(t *testing.T) {
	edits, checkpointEvery := 500, 50
	if testing.Short() {
		edits, checkpointEvery = 60, 20
	}
	fresh := func() *graph.Graph { return workload.Bibliography(60, 13) }
	mk := specBuilder(workload.BibliographySpec())

	cur := fresh()
	b := mk(t)
	b.SetWorkers(4)
	b.SetDataGraph(cur)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Every edit's cycle is recorded in a persistent build ledger, the
	// way a long-running server would: the freshness stamp must exist
	// and stay sane for every single edit, and the segments must
	// survive a reopen at the end of the soak.
	ledgerDir := t.TempDir()
	led, err := ledger.Open(ledger.Options{
		Dir: ledgerDir, SegmentEntries: 128, KeepSegments: 8, MemoryEntries: edits + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var script editScript
	selectiveRounds, stamped := 0, 0
	for i := 1; i <= edits; i++ {
		op := editOp{Kind: rng.Intn(5), Seed: rng.Int63()}
		script = append(script, op)
		applyBibOp(cur, op)
		observed := time.Now()
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatalf("edit %d: rebuild: %v", i, err)
		}
		if res.Incremental != nil && res.Incremental.Mode == "selective" {
			selectiveRounds++
		}
		e := ledger.FromResult(res, "interval")
		if e.Mode != "noop" {
			e.StampFreshness(observed, time.Now())
		}
		rec, err := led.Append(e)
		if err != nil {
			t.Fatalf("edit %d: ledger append: %v", i, err)
		}
		if rec.Mode != "noop" {
			if rec.Freshness == nil {
				t.Fatalf("edit %d: changed cycle has no freshness stamp", i)
			}
			if p := rec.Freshness.PropagationSeconds; p < 0 || p > 30 {
				t.Fatalf("edit %d: propagation %v outside [0, 30s]", i, p)
			}
			stamped++
		}
		prev = res

		if i%checkpointEvery != 0 && i != edits {
			continue
		}
		sdata := fresh()
		for _, sop := range script {
			applyBibOp(sdata, sop)
		}
		sb := mk(t)
		sb.SetWorkers(4)
		sb.SetDataGraph(sdata)
		want, err := sb.Build()
		if err != nil {
			t.Fatalf("checkpoint at edit %d: scratch build: %v", i, err)
		}
		if err := compareResultsErr(prev, want); err != nil {
			t.Fatalf("checkpoint at edit %d: %v", i, err)
		}
	}
	// The soak is only meaningful if the fast path actually carried the
	// load; a silent degradation to full rebuilds must fail loudly.
	if selectiveRounds < edits/2 {
		t.Errorf("only %d of %d edits took the selective path", selectiveRounds, edits)
	}
	// Freshness must have been tracked for the soak to mean anything:
	// nearly every random edit changes the site.
	if stamped < edits/2 {
		t.Errorf("only %d of %d edits recorded a freshness stamp", stamped, edits)
	}
	if led.Len() != edits {
		t.Errorf("ledger holds %d entries, want %d", led.Len(), edits)
	}
	// Reopen from disk: recovery must see every persisted cycle intact,
	// newest first, ending at the soak's last sequence number.
	re, err := ledger.Open(ledger.Options{
		Dir: ledgerDir, SegmentEntries: 128, KeepSegments: 8, MemoryEntries: edits + 1,
	})
	if err != nil {
		t.Fatalf("reopening soak ledger: %v", err)
	}
	if re.Dropped() != 0 {
		t.Errorf("recovery dropped %d damaged lines", re.Dropped())
	}
	recovered := re.Entries(ledger.Filter{})
	if len(recovered) == 0 || recovered[0].Seq != uint64(edits) {
		t.Errorf("recovered %d entries, head seq %d, want head %d",
			len(recovered), recovered[0].Seq, edits)
	}
	t.Logf("soak: %d edits, %d selective, %d stamped, %d recovered, %d checkpoints",
		edits, selectiveRounds, stamped, len(recovered), edits/checkpointEvery)
}
