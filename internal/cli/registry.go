package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/store"
)

// parseErr maps -h to a clean exit instead of an error trace.
func parseErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// splitLeadingID peels a leading non-flag argument (a workload ID) off
// args, so subcommands accept "run <id> -quick" as well as
// "run -quick <id>" despite flag's stop-at-first-positional parsing.
func splitLeadingID(args []string) (id string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// paramFlags collects repeated -p name=value workload overrides.
type paramFlags struct{ vals map[string]string }

// String implements flag.Value. Keys are sorted so -h output and flag
// defaults render identically run to run (map iteration order is
// randomized).
func (p *paramFlags) String() string {
	keys := make([]string, 0, len(p.vals))
	for k := range p.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+p.vals[k])
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (p *paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || strings.TrimSpace(k) == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if p.vals == nil {
		p.vals = make(map[string]string)
	}
	p.vals[k] = v
	return nil
}

func cmdReport(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scale down the expensive experiments")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan exhibits out to N hpcc worker processes (0 = in-process -j pool; output is identical either way)")
	remote := fs.String("remote", "", "fan exhibits out to hpcc worker -listen fleet at these comma-separated addresses (output is identical either way)")
	exp := fs.String("e", "", "run a single experiment by ID (E1..E7)")
	jsonOut := fs.Bool("json", false, "emit structured JSON instead of text")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var xf collectivesFlags
	xf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	var df drainFlags
	df.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := xf.apply(); err != nil {
		return err
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	reportParams := harness.Params{Quick: *quick}
	prog := core.NewProgram()
	prog.Quick = *quick
	if *exp != "" {
		w, err := prog.ExperimentWorkload(*exp)
		if err != nil {
			return err
		}
		ctx, cancelBudget := bf.apply(ctx)
		defer cancelBudget()
		res, err := runSingle(ctx, &jf, resultCache, w, reportParams, *jsonOut, stderr)
		if err != nil {
			return bf.explain(err)
		}
		if err := writeResult(stdout, res, *jsonOut); err != nil {
			return err
		}
		return sf.persist(ctx, []store.Entry{{Params: reportParams, Result: res}}, stderr)
	}
	// The signal context drives the executor's drain channel directly:
	// a SIGINT/SIGTERM stops dispatch at once while in-flight exhibits
	// finish under the -drain grace; -budget layers on top so an expiry
	// cancels outright and surfaces as DeadlineExceeded.
	ex, drains, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		return err
	}
	headerJobs, err := reportJobs(prog, reportParams)
	if err != nil {
		return err
	}
	done, err := jf.open("report", headerJobs, *jsonOut, stderr)
	if err != nil {
		return err
	}
	ex = jf.wrap(wrapExecutor(ex, resultCache), done)
	jobCtx, stopGrace := df.wrap(ctx, drains)
	defer stopGrace()
	runBase, cancelBudget := bf.apply(jobCtx)
	defer cancelBudget()
	// Text output streams: each exhibit prints as soon as every exhibit
	// before it has finished, so long reports show progress. The bytes
	// are identical to the old print-at-the-end path.
	runCtx, cancelRun := context.WithCancel(runBase)
	defer cancelRun()
	emit, emitErr := streamEmitter(jsonOut, cancelRun, func(r harness.Result) error {
		return core.WriteResult(stdout, r)
	})
	results, err := prog.ReportResultsExec(runCtx, ex, emit)
	if werr := *emitErr; werr != nil {
		jf.finish(werr, stderr)
		return werr
	}
	if err != nil {
		if persistableErr(err) {
			sf.persistPrefix(ctx, results, func(int) harness.Params { return reportParams }, stderr)
		}
		jf.finish(err, stderr)
		return bf.explain(err)
	}
	if *jsonOut {
		if err := writeJSON(stdout, results); err != nil {
			jf.finish(err, stderr)
			return err
		}
	}
	jf.finish(nil, stderr)
	return sf.persistResults(ctx, results, func(int) harness.Params { return reportParams }, stderr)
}

// reportJobs mirrors the job list ReportResultsExec builds (same
// exhibits, same paper order, same params) so the journal header can
// record the report's identity without running anything.
func reportJobs(prog *core.Program, params harness.Params) ([]harness.Job, error) {
	exps := prog.Experiments()
	jobs := make([]harness.Job, len(exps))
	for i, e := range exps {
		w, err := prog.ExperimentWorkload(e.ID)
		if err != nil {
			return nil, err
		}
		jobs[i] = harness.Job{Workload: w, Params: params}
	}
	return jobs, nil
}

// runSingle runs one workload the way run and report -e do — but when
// -journal is set, it routes through the single-job executor stack so
// the result checkpoints and a completed journal replays without
// rerunning. Without -journal it is exactly the old runCached path.
func runSingle(ctx context.Context, jf *journalFlags, resultCache *cache.Cache, w harness.Workload, params harness.Params, jsonOut bool, stderr io.Writer) (harness.Result, error) {
	if jf.dir == "" {
		return runCached(ctx, resultCache, w, params, stderr)
	}
	jobList := []harness.Job{{Workload: w, Params: params}}
	done, err := jf.open("run", jobList, jsonOut, stderr)
	if err != nil {
		return harness.Result{}, err
	}
	ex := jf.wrap(wrapExecutor(harness.LocalExecutor{Workers: 1}, resultCache), done)
	results, err := ex.Execute(ctx, jobList, nil)
	jf.finish(err, stderr)
	if err != nil {
		return harness.Result{}, err
	}
	return results[0], nil
}

// streamEmitter adapts a per-result writer into an Executor emit
// callback for text output (JSON callers need the whole slice, so they
// get a nil emit and print at the end). Emit itself cannot fail the
// executor, so the first write error cancels the run via cancelRun —
// there is no point computing results whose output can never be
// delivered — and lands in the returned pointer, which the caller must
// check before the executor's error (the cancellation is a symptom).
func streamEmitter(jsonOut *bool, cancelRun context.CancelFunc, write func(harness.Result) error) (func(int, harness.Result), *error) {
	errp := new(error)
	if *jsonOut {
		return nil, errp
	}
	return func(_ int, r harness.Result) {
		if *errp == nil {
			if *errp = write(r); *errp != nil {
				cancelRun()
			}
		}
	}, errp
}

// writeResult renders one result to w as JSON or text. Callers print
// before persisting so a store failure never discards a result the run
// already produced.
func writeResult(w io.Writer, res harness.Result, jsonOut bool) error {
	if jsonOut {
		s, err := res.JSON()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, s)
		return err
	}
	_, err := io.WriteString(w, res.Text)
	return err
}

// persistResults pairs each result with its params (by index) and
// appends them as one snapshot; a no-op without -store.
func (sf *storeFlags) persistResults(ctx context.Context, results []harness.Result, params func(int) harness.Params, stderr io.Writer) error {
	if sf.dir == "" {
		return nil
	}
	entries := make([]store.Entry, len(results))
	for i, r := range results {
		entries[i] = store.Entry{Params: params(i), Result: r}
	}
	return sf.persist(ctx, entries, stderr)
}

func cmdList(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the catalog as JSON")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}

	if *jsonOut {
		type entry struct {
			ID          string          `json:"id"`
			Description string          `json:"description"`
			Params      []harness.Param `json:"params,omitempty"`
		}
		var out []entry
		for _, w := range harness.All() {
			out = append(out, entry{ID: w.ID(), Description: w.Description(), Params: w.ParamSpace()})
		}
		return writeJSON(stdout, out)
	}
	t := report.NewTable("Registered workloads", "ID", "Description", "Parameters")
	t.Aligns = []report.Align{report.Left, report.Left, report.Left}
	for _, w := range harness.All() {
		var params []string
		for _, p := range w.ParamSpace() {
			params = append(params, p.Name+"="+p.Default)
		}
		t.AddRow(w.ID(), w.Description(), strings.Join(params, " "))
	}
	_, err := io.WriteString(stdout, t.Render())
	return err
}

func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scaled-down smoke configuration")
	seed := fs.Int64("seed", 0, "seed for randomized workloads (0 = workload default)")
	jsonOut := fs.Bool("json", false, "emit the structured result as JSON")
	var overrides paramFlags
	fs.Var(&overrides, "p", "workload parameter override name=value (repeatable)")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var xf collectivesFlags
	xf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	// Accept both "run <id> [flags]" and "run [flags] <id>".
	id, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := xf.apply(); err != nil {
		return err
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	ctx, cancelBudget := bf.apply(ctx)
	defer cancelBudget()
	switch {
	case id == "" && fs.NArg() == 1:
		id = fs.Arg(0)
	case id != "" && fs.NArg() == 0:
	default:
		fmt.Fprintln(stderr, "usage: hpcc run <workload-id> [flags]   (see 'hpcc list')")
		return errors.New("run: want exactly one workload ID")
	}
	w, err := harness.Lookup(id)
	if err != nil {
		return err
	}
	params := harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}
	res, err := runSingle(ctx, &jf, resultCache, w, params, *jsonOut, stderr)
	if err != nil {
		return bf.explain(err)
	}
	if err := writeResult(stdout, res, *jsonOut); err != nil {
		return err
	}
	return sf.persist(ctx, []store.Entry{{Params: params, Result: res}}, stderr)
}

func cmdSweep(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ids := fs.String("ids", "", "comma-separated workload IDs (default: every registered workload)")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan jobs out to N hpcc worker processes (0 = in-process -j pool; output is identical either way)")
	remote := fs.String("remote", "", "fan jobs out to hpcc worker -listen fleet at these comma-separated addresses (output is identical either way)")
	quick := fs.Bool("quick", false, "scaled-down smoke configurations")
	seed := fs.Int64("seed", 0, "seed for randomized workloads")
	jsonOut := fs.Bool("json", false, "emit structured JSON instead of text")
	param := fs.String("param", "", "with a single positional workload: parameter to sweep")
	values := fs.String("values", "", "comma-separated values for -param")
	var overrides paramFlags
	fs.Var(&overrides, "p", "workload parameter override name=value (repeatable)")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var xf collectivesFlags
	xf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	var df drainFlags
	df.register(fs)
	// Accept both "sweep <id> [flags]" and "sweep [flags] <id>".
	id, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := xf.apply(); err != nil {
		return err
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return errors.New("sweep: want at most one positional workload ID")
	}

	base := harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}

	var jobList []harness.Job
	switch {
	case *param != "":
		// One workload, many points: hpcc sweep linpack/delta -param nb -values 4,8,16
		if id == "" {
			return errors.New("sweep: -param needs exactly one positional workload ID")
		}
		if *values == "" {
			return errors.New("sweep: -param needs -values v1,v2,...")
		}
		w, lerr := harness.Lookup(id)
		if lerr != nil {
			return lerr
		}
		vals, verr := splitValues(*values)
		if verr != nil {
			return verr
		}
		jobList = harness.ValueJobs(w, base, *param, vals)
	case id != "":
		return errors.New("sweep: a positional workload ID needs -param/-values; use -ids for a portfolio")
	default:
		var ws []harness.Workload
		if *ids == "" {
			ws = harness.All()
		} else {
			for _, id := range strings.Split(*ids, ",") {
				w, lerr := harness.Lookup(strings.TrimSpace(id))
				if lerr != nil {
					return lerr
				}
				ws = append(ws, w)
			}
		}
		jobList = harness.WorkloadJobs(ws, base)
	}

	// The signal context drives the executor's drain channel directly:
	// a SIGINT/SIGTERM stops dispatch at once, while jobs run under the
	// drained jobCtx that outlives the signal by the -drain grace. The
	// -budget deadline layers on top so an expiry cancels jobs outright
	// (it must surface as DeadlineExceeded, not a drain).
	ex, drains, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		return err
	}
	done, err := jf.open("sweep", jobList, *jsonOut, stderr)
	if err != nil {
		return err
	}
	ex = jf.wrap(wrapExecutor(ex, resultCache), done)
	jobCtx, stopGrace := df.wrap(ctx, drains)
	defer stopGrace()
	runBase, cancelBudget := bf.apply(jobCtx)
	defer cancelBudget()
	// Text output streams: each point prints as soon as every point
	// before it has finished, so huge sweeps show progress; the bytes
	// are identical to the old print-at-the-end path. Printing precedes
	// persisting either way: a store failure must not discard results
	// the sweep already produced.
	runCtx, cancelRun := context.WithCancel(runBase)
	defer cancelRun()
	emit, emitErr := streamEmitter(jsonOut, cancelRun, func(r harness.Result) error {
		return writeSweepResult(stdout, r)
	})
	results, err := ex.Execute(runCtx, jobList, emit)
	if werr := *emitErr; werr != nil {
		jf.finish(werr, stderr)
		return werr
	}
	if err != nil {
		// An interrupted or budget-expired sweep still persists its
		// completed prefix — that is the whole point of crash safety —
		// and the kept journal prints the resume command.
		if persistableErr(err) {
			sf.persistPrefix(ctx, results, func(i int) harness.Params { return jobList[i].Params }, stderr)
		}
		jf.finish(err, stderr)
		return bf.explain(err)
	}
	if *jsonOut {
		if err := writeJSON(stdout, results); err != nil {
			jf.finish(err, stderr)
			return err
		}
	}
	jf.finish(nil, stderr)
	// jobList mirrors the per-result parameters so persisted records
	// carry the exact point each result ran at.
	return sf.persistResults(ctx, results, func(i int) harness.Params { return jobList[i].Params }, stderr)
}

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

// writeJSON emits v as indented JSON terminated by a newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
