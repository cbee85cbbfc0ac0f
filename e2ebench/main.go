// Command e2ebench is the repository's end-to-end benchmark of the
// serve cycle `strudel serve` runs: a source edit travels through
// fetch, mediation, StruQL evaluation, verification, rendering,
// publication, the edge swap and the ledger until the edited pages
// answer at the edge with new strong ETags; between edits one client
// reads the site through the full request chain.
//
// It runs from the repository root:
//
//	bash e2ebench/run.sh --workload link-10k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run, and the spans are written under
// .bench_build/traces. Every run checks the program's answers and
// counts the operations it attempted and those that failed.
// BENCHMARK.json declares the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// Overrides for the package test: record count, a fixed number of
	// rounds instead of a deadline, serve requests per round and set-up
	// repetitions (0 keeps the default).
	records, rounds, requests, setupReps int
	// workDir holds the run's sources, generations and ledger;
	// traceDir receives the traced run's spans.
	workDir, traceDir string
}

// defaultSetupReps is how many times a run sets up the serving stack
// from scratch; setup_s is their median.
const defaultSetupReps = 5

// minRounds is the least number of rounds a deadline-bound run makes.
const minRounds = 3

// tracedRounds is how many rounds of each kind, untraced and traced, a
// traced run makes. It is fixed, not bound to a deadline, so that what
// the per-layer counts read does not depend on how many rounds the host
// managed: Ledger.Append rewrites the whole active segment, the dynamic
// page cache fills and the client's tag cache warms as rounds go by.
const tracedRounds = 8

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, line := range out.summary {
		fmt.Println(line)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: gate failure:", f)
	}
	data, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds of an untraced run (a traced run makes a fixed number of rounds)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.workload == "" {
		return cfg, fmt.Errorf("--workload is required")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.workDir = filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	cfg.traceDir = filepath.Join(".bench_build", "traces")
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	result   result
	summary  []string
	failures []string
}

// run executes one invocation. Untraced, it reports the end-to-end
// metrics; traced, the per-layer metrics of the traced rounds and the
// tracing overhead against the untraced rounds interleaved with them.
func run(cfg config) (*output, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.workDir); err == nil {
		return nil, fmt.Errorf("work directory %s already exists", cfg.workDir)
	}
	defer os.RemoveAll(cfg.workDir)

	out := &output{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	plain, traced, err := runPhase(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	res := result{Metrics: endToEnd(plain)}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	out.failures = plain.failures
	out.summary = plain.describe(w.name)
	if traced != nil {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		tf := traceFile{Workload: w.name, Seed: cfg.seed, Overhead: overhead(plain, traced)}
		if err := tr.write(path, tf); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		res.Metrics = layerMetrics(w, traced, plain)
		out.summary = append(out.summary, traced.describe(w.name+" traced rounds")...)
		out.summary = append(out.summary, "spans, self times and tracing overhead written to "+path)
	}
	res.Correct = res.Failed == 0
	out.result = res
	return out, nil
}

// phase is everything one measured phase observed.
type phase struct {
	setup    []float64 // s
	edit     []float64 // ms, edit → servable
	noop     []float64 // ms
	liveHeap float64   // MB
	// Per serve burst: p50 and p99 latency (µs) and requests per
	// second of request time.
	burstP50, burstP99, burstRPS []float64
	requests                     int

	edits, noops []*cycleStats
	firstGet     []float64 // µs
	serve        serveStats

	attempted, failed int
	failures          []string
}

// serveStats are the serve phase's edge and cache observations.
type serveStats struct {
	requests, hits, cold uint64
	allocBytes           uint64
	coldLat              []float64 // µs
	rerank               []float64 // ms
	promotions           []float64 // per round
	decHits, decMisses   int
}

// runPhase sets the stack up defaultSetupReps times, keeps the last,
// and then repeats rounds — a serve phase, an edit cycle, a noop
// refresh — until the deadline (or the fixed round count) is reached.
// With a tracer the run makes tracedRounds rounds of each kind and
// alternates untraced and traced rounds, so drift over the run cancels
// out of the tracing overhead; the traced rounds' observations come
// back separately. Set-up times, gate counts and the live heap go to
// plain.
func runPhase(cfg config, w *workloadDef, tr *tracer) (plain, traced *phase, err error) {
	n := w.records
	if cfg.records > 0 {
		n = cfg.records
	}
	reps := defaultSetupReps
	if cfg.setupReps > 0 {
		reps = cfg.setupReps
	}
	requests := w.serveRequests
	if cfg.requests > 0 {
		requests = cfg.requests
	}
	plain = &phase{}
	var s *stack
	for range reps {
		s = nil
		runtime.GC()
		if err := os.RemoveAll(cfg.workDir); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
			return nil, nil, err
		}
		c := newCorpus(cfg.workDir, n, w.files, cfg.seed)
		if err := c.writeAll(); err != nil {
			return nil, nil, err
		}
		var d time.Duration
		if s, d, err = newStack(w, c, cfg.workDir); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		plain.setup = append(plain.setup, d.Seconds())
	}
	s.client.initPages(cfg.seed)
	runtime.GC()

	arms := []*phase{plain}
	rounds := cfg.rounds
	if tr != nil {
		traced = &phase{}
		arms = append(arms, traced)
		if rounds == 0 {
			rounds = tracedRounds
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for round := 0; ; round++ {
		if rounds > 0 && round >= rounds*len(arms) {
			break
		}
		if rounds == 0 && round >= minRounds && time.Now().After(deadline) {
			break
		}
		p := arms[round%len(arms)]
		s.tr = nil
		if p == traced {
			s.tr = tr
		}
		s.client.measure = p == traced
		s.serveRound(p, requests)
		if err := s.editCycle(p); err != nil {
			return nil, nil, err
		}
		if err := s.noopCycle(p); err != nil {
			return nil, nil, err
		}
	}
	plain.attempted = s.client.attempted
	plain.failed = s.client.failed
	plain.failures = s.client.failures

	// Live heap: what the serving process retains once the client's
	// caches, the oracle and the in-memory publish files are gone.
	s.client = nil
	s.mem.reset()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	plain.liveHeap = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(s)
	return plain, traced, nil
}

func (p *phase) describe(name string) []string {
	var out []string
	if len(p.setup) > 0 {
		out = append(out, fmt.Sprintf("%s: setup_s %.4f s (n=%d)", name, median(p.setup), len(p.setup)))
	}
	return append(out,
		fmt.Sprintf("%s: edit_to_servable_p50_ms %.3f ms (n=%d)", name, median(p.edit), len(p.edit)),
		fmt.Sprintf("%s: noop_refresh_p50_ms %.3f ms (n=%d)", name, median(p.noop), len(p.noop)),
		fmt.Sprintf("%s: serve_p50_us %.3f µs, serve_p99_us %.3f µs, serve_rps %.0f 1/s (medians of n=%d bursts, %d requests)",
			name, median(p.burstP50), median(p.burstP99), median(p.burstRPS), len(p.burstP50), p.requests),
		fmt.Sprintf("%s: live_heap_mb %.3f MB", name, p.liveHeap),
	)
}

func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"setup_s":                 {median(p.setup), "s"},
		"edit_to_servable_p50_ms": {median(p.edit), "ms"},
		"noop_refresh_p50_ms":     {median(p.noop), "ms"},
		"serve_p50_us":            {median(p.burstP50), "us"},
		"serve_p99_us":            {median(p.burstP99), "us"},
		"serve_rps":               {median(p.burstRPS), "1/s"},
		"live_heap_mb":            {p.liveHeap, "MB"},
	}
}

// overhead is the traced phase's end-to-end numbers minus the
// untraced phase's.
func overhead(plain, traced *phase) map[string]float64 {
	return map[string]float64{
		"edit_to_servable_p50_ms": median(traced.edit) - median(plain.edit),
		"noop_refresh_p50_ms":     median(traced.noop) - median(plain.noop),
		"serve_p50_us":            median(traced.burstP50) - median(plain.burstP50),
	}
}
