package incremental

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"strudel/internal/pool"
	"strudel/internal/struql"
)

// cacheSnapshot renders every materialized page as "key: sig, sig, ..."
// lines, sorted — a byte-comparable image of the whole site.
func cacheSnapshot(d *Decomposition) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	lines := make([]string, 0, len(d.cache))
	for key, pd := range d.cache {
		sigs := make([]string, len(pd.Edges))
		for i := range pd.Edges {
			sigs[i] = string(edgeSignature(nil, &pd.Edges[i]))
		}
		lines = append(lines, key+": "+strings.Join(sigs, ", "))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestMaterializeAllParallelDeterministic: the page count, the binding
// statistics and the full cache contents — every page's edges, in
// order — are identical at workers 1, 4 and 16.
func TestMaterializeAllParallelDeterministic(t *testing.T) {
	_, base := setup(t)
	base.SetWorkers(1)
	wantN, err := base.MaterializeAll("Roots")
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := cacheSnapshot(base)
	wantStats := base.Stats()
	for _, w := range []int{4, 16} {
		_, d := setup(t)
		d.SetWorkers(w)
		n, err := d.MaterializeAll("Roots")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if n != wantN {
			t.Errorf("workers=%d: materialized %d pages, want %d", w, n, wantN)
		}
		if snap := cacheSnapshot(d); snap != wantSnap {
			t.Errorf("workers=%d: cache differs from sequential run:\n%s\n--- want ---\n%s", w, snap, wantSnap)
		}
		if st := d.Stats(); st != wantStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", w, st, wantStats)
		}
	}
}

// TestMaterializeAllSharedPool: materialization over a shared pool
// produces the same site.
func TestMaterializeAllSharedPool(t *testing.T) {
	_, base := setup(t)
	if _, err := base.MaterializeAll("Roots"); err != nil {
		t.Fatal(err)
	}
	_, d := setup(t)
	d.UsePool(pool.New(8))
	if _, err := d.MaterializeAll("Roots"); err != nil {
		t.Fatal(err)
	}
	if cacheSnapshot(d) != cacheSnapshot(base) {
		t.Error("shared-pool materialization differs from default run")
	}
}

// TestMaterializeAllParallelError: a failing page query surfaces the
// same (lowest-frontier-index) error at any worker count.
func TestMaterializeAllParallelError(t *testing.T) {
	var want string
	for i, w := range []int{1, 4, 16} {
		_, d := setup(t)
		d.SetWorkers(w)
		d.UsePlanner(func(conds []struql.Condition, seed []struql.Binding) ([]struql.Binding, error) {
			if len(seed) > 0 { // page computation; Roots passes a nil seed
				return nil, fmt.Errorf("boom")
			}
			return struql.EvalBindings(d.input, d.reg, conds, seed)
		})
		_, err := d.MaterializeAll("Roots")
		if err == nil {
			t.Fatalf("workers=%d: expected error", w)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q differs from sequential %q", w, err.Error(), want)
		}
	}
}

// TestMaterializeAllContextCancelled: a cancelled context aborts the
// walk with the context's error.
func TestMaterializeAllContextCancelled(t *testing.T) {
	_, d := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.MaterializeAllContext(ctx, "Roots"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
