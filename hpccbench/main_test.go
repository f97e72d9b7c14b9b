package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

// roundTrip runs one plain and one traced request on fx and checks the
// decorators: the outputs are byte-identical, and every span's parent
// exists and encloses it.
func roundTrip(t *testing.T, fx fixture, tr *tracer) *tracer {
	t.Helper()
	ctx := context.Background()
	plain, _, err := fx.request(ctx, nil, 0)
	if err != nil {
		t.Fatalf("plain request: %v", err)
	}
	fx.after(0)
	root := tr.begin("request", -1)
	traced, _, err := fx.request(ctx, tr, 1)
	tr.end(root)
	if err != nil {
		t.Fatalf("traced request: %v", err)
	}
	fx.after(1)
	if !bytes.Equal(plain, traced) {
		t.Errorf("traced output differs from plain output (%d vs %d bytes)", len(traced), len(plain))
	}
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	if problems := tr.finishRequest(); len(problems) > 0 {
		t.Errorf("span problems: %v", problems)
	}
	if n < 2 {
		t.Errorf("traced request recorded %d spans", n)
	}
	return tr
}

func testEnv(t *testing.T) *env {
	return &env{dir: t.TempDir(), seed: 7, workers: 2}
}

func TestTracedE4MatchesPlain(t *testing.T) {
	w, err := harness.Lookup("linpack/delta")
	if err != nil {
		t.Fatal(err)
	}
	// The scaled-down configuration exercises the same seams quickly.
	fx := &e4Fixture{e: testEnv(t), jobList: []harness.Job{{Workload: w, Params: harness.Params{Quick: true}}}}
	tr := roundTrip(t, fx, newTracer())
	if got := len(tr.durs["workload.run"]); got != 1 {
		t.Errorf("workload.run spans = %d, want 1", got)
	}
}

func TestTracedSweepMatchesPlain(t *testing.T) {
	e := testEnv(t)
	jobs, err := sweepJobs(e.seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	fx, err := newSweepFixture(context.Background(), e, filepath.Join(e.dir, "sweep"), jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	roundTrip(t, fx, tr)
	for _, name := range []string{"workload.run", "cache.put", "cache.get", "journal.record"} {
		if got := len(tr.durs[name]); got != len(jobs) {
			t.Errorf("%s spans = %d, want %d", name, got, len(jobs))
		}
	}
	if tr.dials.Load() != 2 || tr.frames.Load() == 0 {
		t.Errorf("wire: %d dials, %d frames", tr.dials.Load(), tr.frames.Load())
	}
}

func TestTracedReportMatchesPlain(t *testing.T) {
	fx, err := setupReport(context.Background(), testEnv(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	tr := roundTrip(t, fx, newTracer())
	if tr.hits != fx.jobs() || len(tr.durs["cache.get"]) != fx.jobs() {
		t.Errorf("%d hits of %d gets, want %d of %d", tr.hits, len(tr.durs["cache.get"]), fx.jobs(), fx.jobs())
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},
	}
	self := selfTimes(spans)
	want := map[string]float64{"request": 20e-9, "a": 30e-9, "b": 50e-9, "c": 10e-9}
	for name, w := range want {
		if d := self[name] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
	if bad := checkSpans(spans); len(bad) != 0 {
		t.Errorf("well-formed spans reported: %v", bad)
	}
	spans[4].End = 120 // outlives its parent
	if bad := checkSpans(spans); len(bad) != 1 {
		t.Errorf("escaping span: got %v", bad)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadDefs[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %v in BENCHMARK.json, %v here", c.kind, i, m, d)
			}
		}
	}
}
