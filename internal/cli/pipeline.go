package cli

// The job pipeline every command runs through. A job list goes down one
// executor stack — the innermost executor (the local pool, -shards
// children or a -remote fleet), fronted by the result cache, fronted by
// the journal — under the drain, budget and stream-cancel contexts, and
// the results come back through the renderer of the command's mode. run,
// report, sweep and resume stream, journal and persist through
// pipeline.run; serve's handlers use the same stack and answer in JSON.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
)

// renderer is how one mode prints results: text streams one result at a
// time as the completed prefix grows, JSON prints once at the end.
type renderer struct {
	text func(io.Writer, harness.Result) error
	json func(io.Writer, []harness.Result) error
}

// renderers is keyed by mode, which is also the journal header's Mode,
// so resume prints exactly what the interrupted command would have.
// `run` prints a single result (its JSON is one object); report and
// sweep print a portfolio (a JSON array).
var renderers = map[string]renderer{
	"run": {
		text: func(w io.Writer, r harness.Result) error {
			_, err := io.WriteString(w, r.Text)
			return err
		},
		json: func(w io.Writer, rs []harness.Result) error {
			s, err := rs[0].JSON()
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, s)
			return err
		},
	},
	"report": {text: core.WriteResult, json: writeJSONResults},
	"sweep":  {text: writeSweepResult, json: writeJSONResults},
}

func writeJSONResults(w io.Writer, rs []harness.Result) error { return writeJSON(w, rs) }

// writeSweepResult renders one sweep point in the sweep's text format.
func writeSweepResult(w io.Writer, r harness.Result) error {
	var err error
	if r.Title != "" {
		_, err = fmt.Fprintf(w, "=== %s: %s ===\n\n%s\n", r.WorkloadID, r.Title, r.Text)
	} else {
		_, err = fmt.Fprintf(w, "=== %s ===\n\n%s\n", r.WorkloadID, r.Text)
	}
	return err
}

// stack is the executor composition one invocation runs its jobs on.
// It is built per invocation (per request in serve): CachingExecutor
// keeps per-call counters.
type stack struct {
	inner   harness.Executor // the local pool, -shards children or a -remote fleet
	cache   *cache.Cache     // nil: no result cache
	journal *journalFlags    // nil or not open: no checkpointing
	grace   time.Duration    // jobs outlive ctx by this long (-drain)
	budget  budgetFlags      // wall-clock deadline over the whole run

	// hits and misses tally the cache over the last execute.
	hits, misses int
}

// execute runs jobs through the stack and returns the completed prefix
// of results (the harness.Executor contract). ctx's Done channel is the
// drain signal the caller built inner with: it stops dispatch, while
// the jobs themselves run under a context that outlives it by grace and
// dies with the budget. write, when non-nil, receives each result in job
// order as the prefix grows; its first error cancels the run — no point
// computing results that can never be delivered — and is returned in
// place of the executor's error, which is then only a symptom.
func (s *stack) execute(ctx context.Context, jobs []harness.Job, write func(harness.Result) error) ([]harness.Result, error) {
	ex := s.inner
	var ce *harness.CachingExecutor
	if s.cache != nil {
		ce = &harness.CachingExecutor{Inner: ex, Cache: s.cache}
		ex = ce
	}
	ex = s.journal.wrap(ex)

	jobCtx, stopGrace := harness.WithDrain(ctx, s.grace)
	defer stopGrace()
	budgetCtx, cancelBudget := s.budget.apply(jobCtx)
	defer cancelBudget()
	runCtx, cancelRun := context.WithCancel(budgetCtx)
	defer cancelRun()

	var emit func(int, harness.Result)
	var writeErr error
	if write != nil {
		emit = func(_ int, r harness.Result) {
			if writeErr == nil {
				if writeErr = write(r); writeErr != nil {
					cancelRun()
				}
			}
		}
	}
	results, err := ex.Execute(runCtx, jobs, emit)
	if ce != nil {
		s.hits, s.misses = ce.Hits, ce.Misses
	}
	if writeErr != nil {
		return results, writeErr
	}
	return results, err
}

// pipeline is one command's pass through the stack plus its terminal
// end: the mode's renderer on stdout, the journal's lifecycle and the
// run store.
type pipeline struct {
	stack
	mode    string // run | report | sweep: a key of renderers
	jsonOut bool
	store   *storeFlags
}

// run executes jobs and delivers the results. Text streams as the
// completed prefix grows, so long sweeps show progress with bytes
// identical to printing at the end. Printing precedes persisting: a
// store failure must not discard results already produced. An
// interrupted or budget-expired run still persists its completed
// prefix, and the kept journal prints the resume command.
func (p *pipeline) run(ctx context.Context, jobs []harness.Job, stdout, stderr io.Writer) error {
	r := renderers[p.mode]
	if err := p.journal.open(p.mode, jobs, p.jsonOut, stderr); err != nil {
		return err
	}
	var write func(harness.Result) error
	if !p.jsonOut {
		write = func(res harness.Result) error { return r.text(stdout, res) }
	}
	results, err := p.execute(ctx, jobs, write)
	if err == nil && p.jsonOut {
		err = r.json(stdout, results)
	}
	if err != nil && persistableErr(err) {
		p.store.persistPrefix(ctx, jobs, results, stderr)
	}
	p.journal.finish(err, stderr)
	if err != nil {
		return p.budget.explain(err)
	}
	return p.store.persistResults(ctx, jobs, results, stderr)
}

// errBadSweep marks a malformed sweep request, as opposed to one naming
// an unknown workload: serve answers the first 400 and the second 404.
var errBadSweep = errors.New("sweep")

// sweepJobs builds a sweep's job list, for `hpcc sweep` and serve's
// /api/v1/sweep alike: workload id over the values of param, else the
// workloads named in ids, else every workload in reg.
func sweepJobs(reg *harness.Registry, ids []string, id, param string, values []string, base harness.Params) ([]harness.Job, error) {
	switch {
	case param != "":
		if id == "" {
			return nil, fmt.Errorf("%w: -param needs exactly one workload ID", errBadSweep)
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("%w: -param needs -values v1,v2,...", errBadSweep)
		}
		// Params travel through JSON (journal, wire, store), which
		// rewrites invalid UTF-8: such a point could never be resumed or
		// looked up under the key it ran with.
		for _, s := range append([]string{param}, values...) {
			if !utf8.ValidString(s) {
				return nil, fmt.Errorf("%w: -param and -values must be valid UTF-8, got %q", errBadSweep, s)
			}
		}
		w, err := reg.Lookup(id)
		if err != nil {
			return nil, err
		}
		return harness.ValueJobs(w, base, param, values), nil
	case id != "":
		return nil, fmt.Errorf("%w: a single workload ID needs -param/-values; use -ids for a portfolio", errBadSweep)
	case len(ids) == 0:
		return harness.WorkloadJobs(reg.All(), base), nil
	}
	ws := make([]harness.Workload, len(ids))
	for i, id := range ids {
		w, err := reg.Lookup(id)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return harness.WorkloadJobs(ws, base), nil
}

// splitValues parses a -values list: comma-separated, each entry
// whitespace-trimmed (so "4, 8, 16" works like -ids does), empty entries
// rejected rather than silently swept as bogus parameter values.
func splitValues(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, v := range parts {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("sweep: empty value in -values %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
