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

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/store"
)

// parseErr maps -h to a clean exit instead of an error trace, and any
// other flag-parse failure to a usageError.
func parseErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return usageError{err}
}

// usageError marks a malformed command line; Main exits 2 for it, as the
// flag package does, instead of 1 for a failed run.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

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
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	prog := core.NewProgram()
	prog.Quick = *quick
	p := pipeline{
		stack:   stack{cache: resultCache, journal: &jf, grace: df.grace, budget: bf},
		mode:    "report",
		jsonOut: *jsonOut,
		store:   &sf,
	}
	jobList := prog.ReportJobs()
	if *exp != "" {
		// One exhibit prints as `run` would: its bare text, or one JSON
		// object.
		w, err := prog.ExperimentWorkload(*exp)
		if err != nil {
			return err
		}
		p.mode, p.inner = "run", harness.LocalExecutor{Workers: 1}
		jobList = []harness.Job{{Workload: w, Params: harness.Params{Quick: *quick}}}
	} else if p.inner, err = newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr); err != nil {
		return err
	}
	return p.run(ctx, jobList, stdout, stderr)
}

// persistResults pairs each result with its job's params (by index) and
// appends them as one snapshot; a no-op without -store.
func (sf *storeFlags) persistResults(ctx context.Context, jobs []harness.Job, results []harness.Result, stderr io.Writer) error {
	if sf.dir == "" {
		return nil
	}
	entries := make([]store.Entry, len(results))
	for i, r := range results {
		entries[i] = store.Entry{Params: jobs[i].Params, Result: r}
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
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
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
	p := pipeline{
		stack:   stack{inner: harness.LocalExecutor{Workers: 1}, cache: resultCache, journal: &jf, budget: bf},
		mode:    "run",
		jsonOut: *jsonOut,
		store:   &sf,
	}
	params := harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}
	return p.run(ctx, []harness.Job{{Workload: w, Params: params}}, stdout, stderr)
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
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return errors.New("sweep: want at most one positional workload ID")
	}

	var idList, vals []string
	if *ids != "" {
		for _, s := range strings.Split(*ids, ",") {
			idList = append(idList, strings.TrimSpace(s))
		}
	}
	if *values != "" {
		if vals, err = splitValues(*values); err != nil {
			return err
		}
	}
	base := harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}
	jobList, err := sweepJobs(harness.Default, idList, id, *param, vals, base)
	if err != nil {
		return err
	}
	inner, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		return err
	}
	p := pipeline{
		stack:   stack{inner: inner, cache: resultCache, journal: &jf, grace: df.grace, budget: bf},
		mode:    "sweep",
		jsonOut: *jsonOut,
		store:   &sf,
	}
	return p.run(ctx, jobList, stdout, stderr)
}

// writeJSON emits v as indented JSON terminated by a newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
