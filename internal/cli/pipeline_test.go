package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRunPanickingWorkloadFailsCleanly drives the pipeline `hpcc run`
// uses with a panicking workload: the command must fail with the
// contained panic, not crash the process, and print nothing.
func TestRunPanickingWorkloadFailsCleanly(t *testing.T) {
	w := harness.Spec{
		WorkloadID: "pipe/panic",
		Desc:       "always panics",
		RunFunc: func(context.Context, harness.Params) (harness.Result, error) {
			panic("deliberate panic")
		},
	}
	p := pipeline{stack: stack{inner: harness.LocalExecutor{Workers: 1}}, mode: "run", store: &storeFlags{}}
	var out, errb bytes.Buffer
	err := p.run(context.Background(), []harness.Job{{Workload: w}}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "workload panicked") {
		t.Fatalf("panicking run returned %v, want the contained panic", err)
	}
	if out.Len() != 0 {
		t.Fatalf("failed run printed %q", out.String())
	}
}

// FuzzSweepJobs drives the -values parser and the shared sweep job-list
// builder with arbitrary -param/-values input. Each input ends in a
// typed error or in one job per value whose Params set exactly that
// value, keep the -p overrides, and canonicalize identically after the
// JSON round trip they take through the journal, the wire and the store.
func FuzzSweepJobs(f *testing.F) {
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Spec{WorkloadID: "fz/echo", Desc: "never runs"}); err != nil {
		f.Fatal(err)
	}
	base := harness.Params{Seed: 7, Values: map[string]string{"keep": "1"}}
	f.Fuzz(func(t *testing.T, param, values string) {
		vals, err := splitValues(values)
		if err != nil {
			if !strings.Contains(err.Error(), "empty value") {
				t.Fatalf("splitValues(%q): untyped error %v", values, err)
			}
			return
		}
		jobs, err := sweepJobs(reg, nil, "fz/echo", param, vals, base)
		if err != nil {
			if !errors.Is(err, errBadSweep) {
				t.Fatalf("sweepJobs(%q, %q): untyped error %v", param, vals, err)
			}
			return
		}
		if param == "" {
			t.Fatal("a sweep without -param built jobs")
		}
		if len(jobs) != len(vals) {
			t.Fatalf("%d jobs for %d values", len(jobs), len(vals))
		}
		seen := map[string]bool{}
		for i, j := range jobs {
			if got := j.Params.Values[param]; got != vals[i] {
				t.Fatalf("job %d: %s=%q, want %q", i, param, got, vals[i])
			}
			if param != "keep" && j.Params.Values["keep"] != "1" {
				t.Fatalf("job %d lost the -p override: %v", i, j.Params.Values)
			}
			c := j.Params.Canonical()
			b, err := json.Marshal(j.Params)
			if err != nil {
				t.Fatal(err)
			}
			var back harness.Params
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if back.Canonical() != c {
				t.Fatalf("job %d: canonical params %q became %q after a JSON round trip", i, c, back.Canonical())
			}
			seen[c] = true
		}
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[v] = true
		}
		if len(seen) != len(distinct) {
			t.Fatalf("%d distinct values canonicalized to %d keys", len(distinct), len(seen))
		}
		if len(base.Values) != 1 {
			t.Fatalf("the builder mutated the base params: %v", base.Values)
		}
	})
}
