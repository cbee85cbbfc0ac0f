package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// declared is the part of BENCHMARK.json the harness must honour.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloadsPassGateAndReportDeclaredMetrics runs every declared
// workload at a reduced record count, untraced and traced, and checks
// that the correctness gate passes and that exactly the metrics
// BENCHMARK.json declares are printed, each with its declared unit.
func TestWorkloadsPassGateAndReportDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for _, wl := range d.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/untraced"
			want := d.EndToEnd
			if trace {
				name, want = wl.Name+"/traced", d.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: wl.Name, seed: 7, trace: trace,
					records: 120, rounds: 2, requests: burstRequests, setupReps: 1,
					workDir: filepath.Join(dir, "work"), traceDir: filepath.Join(dir, "traces"),
				}
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := out.result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v attempted=%d failed=%d: %v",
						res.Correct, res.Attempted, res.Failed, out.failures)
				}
				checkMetrics(t, res.Metrics, want)
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.traceDir, wl.Name+"-seed7.json")); err != nil {
						t.Errorf("trace not written: %v", err)
					}
				}
				var line map[string]json.RawMessage
				data, _ := json.Marshal(res)
				if err := json.Unmarshal(data, &line); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range line {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := len(keys); got != 4 || keys[0] != "attempted" || keys[1] != "correct" ||
					keys[2] != "failed" || keys[3] != "metrics" {
					t.Errorf("result keys %v, want attempted correct failed metrics", keys)
				}
			})
		}
	}
}

// TestDesignMapsEveryLayerMetric keeps design.json's layer map in step
// with the per-layer metrics BENCHMARK.json declares.
func TestDesignMapsEveryLayerMetric(t *testing.T) {
	d := readDeclared(t)
	data, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		LayerMap []struct{ Metric string } `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &design); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range design.LayerMap {
		mapped[l.Metric] = true
	}
	for _, m := range d.PerLayer {
		if !mapped[m.Name] {
			t.Errorf("per-layer metric %s has no layer_map entry", m.Name)
		}
		delete(mapped, m.Name)
	}
	for name := range mapped {
		t.Errorf("layer_map entry %s is not a declared per-layer metric", name)
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, declared %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

// TestMemFSPublishesAndPrunes drives the in-memory filesystem through
// the calls publication makes: staging, a directory rename, an atomic
// file replace, listing and pruning.
func TestMemFSPublishesAndPrunes(t *testing.T) {
	m := newMemFS()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.MkdirAll("pub/gen-1.tmp", 0o755))
	must(m.WriteFile("pub/gen-1.tmp/a.html", []byte("a"), 0o644))
	must(m.Sync("pub/gen-1.tmp/a.html"))
	must(m.Rename("pub/gen-1.tmp", "pub/gen-1"))
	must(m.WriteFile("pub/CURRENT.tmp", []byte("gen-1\n"), 0o644))
	must(m.Rename("pub/CURRENT.tmp", "pub/CURRENT"))
	ents, err := m.ReadDir("pub")
	must(err)
	if len(ents) != 2 || ents[0].Name() != "CURRENT" || ents[1].Name() != "gen-1" || !ents[1].IsDir() {
		t.Fatalf("ReadDir(pub) = %v", ents)
	}
	if err := m.Remove("pub/gen-1"); err == nil {
		t.Fatal("removing a non-empty directory succeeded")
	}
	must(m.RemoveAll("pub/gen-1"))
	if _, err := m.Stat("pub/gen-1/a.html"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after RemoveAll: %v", err)
	}
	if err := m.WriteFile("nodir/x", nil, 0o644); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("WriteFile into a missing directory: %v", err)
	}
}
