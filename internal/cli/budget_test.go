package cli

// Tests for the -budget flag: an expired budget fails run/sweep/report
// with an error that names the budget and still wraps
// context.DeadlineExceeded, and serve validates its admission flags at
// startup.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBudgetExplainWrapsOnlyDeadlineExpiry(t *testing.T) {
	bf := budgetFlags{d: time.Second}
	err := bf.explain(fmt.Errorf("sweep: %w", context.DeadlineExceeded))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("explain broke the DeadlineExceeded chain: %v", err)
	}
	if !strings.Contains(err.Error(), "budget 1s exhausted") {
		t.Fatalf("explain does not name the budget: %v", err)
	}
	plain := errors.New("kernel exploded")
	if got := bf.explain(plain); got != plain {
		t.Fatalf("non-deadline error rewritten: %v", got)
	}
	if got := (&budgetFlags{}).explain(fmt.Errorf("x: %w", context.DeadlineExceeded)); !errors.Is(got, context.DeadlineExceeded) ||
		strings.Contains(got.Error(), "budget") {
		t.Fatalf("no-budget explain touched the error: %v", got)
	}
}

func TestBudgetExpiryFailsRunSweepReport(t *testing.T) {
	for _, args := range [][]string{
		{"run", "E1", "-budget", "1ns"},
		{"sweep", "-ids", "E1", "-quick", "-budget", "1ns"},
		{"report", "-quick", "-budget", "1ns"},
		// E4 runs for seconds: the deadline must stop its simulation.
		{"run", "E4", "-budget", "50ms"},
	} {
		_, errOut, code := run(t, args...)
		if code == 0 {
			t.Errorf("%v: exhausted budget exited 0", args)
			continue
		}
		if !strings.Contains(errOut, "budget "+args[len(args)-1]+" exhausted") {
			t.Errorf("%v: error does not name the budget: %s", args, errOut)
		}
		if !strings.Contains(errOut, "deadline exceeded") {
			t.Errorf("%v: the deadline cause is hidden: %s", args, errOut)
		}
	}
}

func TestBudgetGenerousEnoughSucceeds(t *testing.T) {
	out, errOut, code := run(t, "run", "E1", "-budget", "5m")
	if code != 0 {
		t.Fatalf("run with a generous budget failed (%d): %s", code, errOut)
	}
	plain, _, code := run(t, "run", "E1")
	if code != 0 {
		t.Fatal("plain run failed")
	}
	if out != plain {
		t.Fatal("-budget changed the output of a run that fit inside it")
	}
}

func TestServeValidatesAdmissionFlagsAtStartup(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"bad-jobs":   {[]string{"serve", "-j", "0"}, "-j must be at least 1"},
		"bad-pool":   {[]string{"serve", "-pool", "0"}, "-pool must be at least 1"},
		"bad-queue":  {[]string{"serve", "-queue", "-1"}, "-queue must be non-negative"},
		"bad-remote": {[]string{"serve", "-remote", "a,,b"}, "empty address"},
	} {
		_, errOut, code := run(t, tc.args...)
		if code == 0 {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: error missing %q: %s", name, tc.want, errOut)
		}
	}
}

func TestTrendMissingStoreIsDistinctFromEmptyStore(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "never-created")
	_, errOut, code := run(t, "trend", "E1", "-store", missing)
	if code == 0 {
		t.Fatal("trend against a missing store exited 0")
	}
	if !strings.Contains(errOut, "store directory does not exist") {
		t.Fatalf("missing-store error unclear: %s", errOut)
	}

	empty := t.TempDir() // exists, holds no snapshots
	_, errOut, code = run(t, "trend", "E1", "-store", empty)
	if code == 0 {
		t.Fatal("trend against an empty store exited 0")
	}
	if !strings.Contains(errOut, "no snapshots") || strings.Contains(errOut, "does not exist") {
		t.Fatalf("empty-store error conflated with missing-store: %s", errOut)
	}
}
