package cli

// Crash-safe sweep wiring: the -journal/-resume flags shared by run,
// sweep and report, the -drain graceful-shutdown grace period, and the
// `hpcc resume` subcommand that finishes an interrupted journaled
// invocation. The journal itself lives in repro/internal/journal; the
// checkpointing executor in repro/internal/harness.JournalingExecutor.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/nx"
)

// journalFlags carries the crash-safety flags common to run, sweep and
// report. With -journal unset the commands behave exactly as before.
type journalFlags struct {
	dir    string
	resume bool
	jnl    *journal.Journal
}

func (jf *journalFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&jf.dir, "journal", "",
		"checkpoint each completed job to a crash-safe journal in this directory; finish an interrupted invocation with -resume or 'hpcc resume'")
	fs.BoolVar(&jf.resume, "resume", false,
		"with -journal: if a journal for this exact invocation exists, replay its completed jobs and run only the remainder")
}

func (jf *journalFlags) validate() error {
	if jf.resume && jf.dir == "" {
		return errors.New("-resume needs -journal <dir>")
	}
	return nil
}

// journalHeader snapshots the identity of one invocation: the job list
// plus every knob that affects the bytes a job computes. The registry
// fingerprint and the nx collective mode are read from
// the live process, so apply() calls must precede this.
func journalHeader(mode string, jobs []harness.Job, jsonOut bool) journal.Header {
	hj := make([]journal.Job, len(jobs))
	for i, j := range jobs {
		id := ""
		if j.Workload != nil {
			id = j.Workload.ID()
		}
		hj[i] = journal.Job{WorkloadID: id, Params: j.Params}
	}
	return journal.Header{
		Mode:        mode,
		Fingerprint: harness.Default.Fingerprint(),
		Collectives: nx.DefaultCollectives().String(),
		JSON:        jsonOut,
		Jobs:        hj,
		Time:        time.Now().UTC(),
	}
}

// open starts (or with -resume, reopens) the journal for this
// invocation and returns the already-completed results to replay. A
// no-op returning nil without -journal. An existing journal without
// -resume is an error — silently appending a second run into it could
// interleave two attempts' results.
func (jf *journalFlags) open(mode string, jobs []harness.Job, jsonOut bool, stderr io.Writer) (map[int]harness.Result, error) {
	if jf.dir == "" {
		return nil, nil
	}
	h := journalHeader(mode, jobs, jsonOut)
	path := journal.Path(jf.dir, h.Identity())
	if jf.resume {
		j, _, done, err := journal.Open(path, stderr)
		if err == nil {
			fmt.Fprintf(stderr, "hpcc: resuming journal %s: %d of %d job(s) already complete\n", path, len(done), len(jobs))
			jf.jnl = j
			return done, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		fmt.Fprintf(stderr, "hpcc: no journal for this invocation in %s; starting fresh\n", jf.dir)
	}
	j, err := journal.Create(jf.dir, h)
	if err != nil {
		if errors.Is(err, journal.ErrExists) {
			return nil, fmt.Errorf("%w; pass -resume to continue it, or remove the file", err)
		}
		return nil, err
	}
	jf.jnl = j
	return nil, nil
}

// wrap layers the checkpointing executor onto ex; a no-op without an
// open journal.
func (jf *journalFlags) wrap(ex harness.Executor, done map[int]harness.Result) harness.Executor {
	if jf.jnl == nil {
		return ex
	}
	return &harness.JournalingExecutor{Inner: ex, Sink: jf.jnl, Done: done}
}

// finish closes the journal out: a clean run removes it (the checkpoint
// served its purpose), a failed or interrupted one keeps it and prints
// the resume command.
func (jf *journalFlags) finish(runErr error, stderr io.Writer) {
	if jf.jnl == nil {
		return
	}
	j := jf.jnl
	jf.jnl = nil
	if runErr == nil {
		if err := j.Remove(); err != nil {
			fmt.Fprintf(stderr, "hpcc: %v\n", err)
			return
		}
		fmt.Fprintf(stderr, "hpcc: journal complete; removed %s\n", j.Path())
		return
	}
	j.Close()
	fmt.Fprintf(stderr, "hpcc: journal kept at %s; resume with: hpcc resume -journal %s %s\n",
		j.Path(), jf.dir, j.Header().Hash)
}

// drainFlags carries the -drain graceful-shutdown grace period shared
// by sweep, report and resume: after SIGINT/SIGTERM, dispatch stops
// immediately but in-flight jobs get up to this long to finish, so
// their results still journal and persist.
type drainFlags struct{ grace time.Duration }

func (df *drainFlags) register(fs *flag.FlagSet) {
	fs.DurationVar(&df.grace, "drain", 5*time.Second,
		"on SIGINT/SIGTERM, let in-flight jobs finish for up to this long before hard-cancelling (0 = cancel immediately)")
}

// wrap derives the context jobs run under. drains says whether the
// chosen executor honors a drain channel (the in-process pool and
// -shards do; -remote cancels outright) — without it, grace would leave
// a remote sweep running ungoverned after the signal.
func (df *drainFlags) wrap(ctx context.Context, drains bool) (context.Context, context.CancelFunc) {
	if !drains || df.grace <= 0 {
		return context.WithCancel(ctx)
	}
	return harness.WithDrain(ctx, df.grace)
}

// persistableErr reports whether a failed sweep's completed prefix is
// still worth persisting to the run store: a graceful drain, a
// cancellation or budget expiry, or a contained panic all leave a
// trustworthy prefix of real results, where an ordinary workload error
// means the invocation's output is simply wrong.
func persistableErr(err error) bool {
	if errors.Is(err, harness.ErrDrained) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var je *harness.JobError
	return errors.As(err, &je) && je.Panic
}

// persistPrefix writes the completed prefix of an interrupted sweep to
// the run store (a no-op without -store). The context is detached from
// cancellation: the whole point is persisting after ctx died.
func (sf *storeFlags) persistPrefix(ctx context.Context, results []harness.Result, params func(int) harness.Params, stderr io.Writer) {
	if len(results) == 0 {
		return
	}
	if err := sf.persistResults(context.WithoutCancel(ctx), results, params, stderr); err != nil {
		fmt.Fprintf(stderr, "hpcc: persisting completed prefix: %v\n", err)
	}
}

func cmdResume(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc resume", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("journal", "", "journal directory the interrupted invocation was writing (required)")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan the remaining jobs out to N hpcc worker processes")
	remote := fs.String("remote", "", "fan the remaining jobs out to hpcc worker -listen fleet at these comma-separated addresses")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var df drainFlags
	df.register(fs)
	// Accept both "resume <hash> [flags]" and "resume [flags] <hash>".
	ref, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if ref == "" && fs.NArg() == 1 {
		ref = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return errors.New("resume: want at most one journal hash (prefix)")
	}
	if *dir == "" {
		return errors.New("resume: -journal <dir> is required")
	}
	if err := sf.validate(); err != nil {
		return err
	}
	path, err := pickJournal(*dir, ref)
	if err != nil {
		return err
	}
	j, h, done, err := journal.Open(path, stderr)
	if err != nil {
		return err
	}
	// The journal is internally consistent (Open verified its hash);
	// now it must also match *this* binary. A journal written by a
	// different registry would replay results the current code could
	// never have computed.
	if fp := harness.Default.Fingerprint(); h.Fingerprint != fp {
		j.Close()
		return fmt.Errorf("%w: journal %s was written by registry fingerprint %s, this binary is %s (results would not be comparable; rerun instead of resuming)",
			journal.ErrIdentityMismatch, path, h.Fingerprint, fp)
	}
	// Re-apply the collective mode the interrupted invocation ran
	// under, so the remainder computes identical bytes.
	if err := (&collectivesFlags{mode: h.Collectives}).apply(); err != nil {
		j.Close()
		return err
	}
	jobList := make([]harness.Job, len(h.Jobs))
	for i, hj := range h.Jobs {
		w, lerr := harness.Lookup(hj.WorkloadID)
		if lerr != nil {
			j.Close()
			return lerr
		}
		jobList[i] = harness.Job{Workload: w, Params: hj.Params}
	}
	resultCache, err := cf.open()
	if err != nil {
		j.Close()
		return err
	}
	fmt.Fprintf(stderr, "hpcc: resuming %s %s: %d of %d job(s) already complete\n", h.Mode, h.Hash, len(done), len(jobList))

	inner, drains, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		j.Close()
		return err
	}
	jf := &journalFlags{dir: *dir, jnl: j}
	ex := jf.wrap(wrapExecutor(inner, resultCache), done)

	jobCtx, stopGrace := df.wrap(ctx, drains)
	defer stopGrace()
	runBase, cancelBudget := bf.apply(jobCtx)
	defer cancelBudget()
	runCtx, cancelRun := context.WithCancel(runBase)
	defer cancelRun()

	// Stream text output exactly as the interrupted command would have:
	// replayed results print first, then the live remainder as its
	// prefix completes — byte-identical to an uninterrupted run.
	jsonOut := h.JSON
	emit, emitErr := streamEmitter(&jsonOut, cancelRun, func(r harness.Result) error {
		switch h.Mode {
		case "report":
			return core.WriteResult(stdout, r)
		case "run":
			_, werr := io.WriteString(stdout, r.Text)
			return werr
		default:
			return writeSweepResult(stdout, r)
		}
	})
	results, err := ex.Execute(runCtx, jobList, emit)
	if werr := *emitErr; werr != nil {
		jf.finish(werr, stderr)
		return werr
	}
	if err != nil {
		if persistableErr(err) {
			sf.persistPrefix(ctx, results, func(i int) harness.Params { return jobList[i].Params }, stderr)
		}
		jf.finish(err, stderr)
		return bf.explain(err)
	}
	if jsonOut {
		// `run -json` prints one object, the portfolio modes an array.
		if h.Mode == "run" && len(results) == 1 {
			if err := writeResult(stdout, results[0], true); err != nil {
				jf.finish(err, stderr)
				return err
			}
		} else if err := writeJSON(stdout, results); err != nil {
			jf.finish(err, stderr)
			return err
		}
	}
	jf.finish(nil, stderr)
	return sf.persistResults(ctx, results, func(i int) harness.Params { return jobList[i].Params }, stderr)
}

// pickJournal resolves a journal reference (an identity-hash prefix, or
// empty when the directory holds exactly one journal) to a file path.
func pickJournal(dir, ref string) (string, error) {
	paths, err := journal.List(dir)
	if err != nil {
		return "", err
	}
	if ref != "" {
		var matches []string
		for _, p := range paths {
			if strings.HasPrefix(stem(p), ref) {
				matches = append(matches, p)
			}
		}
		paths = matches
	}
	switch len(paths) {
	case 0:
		if ref != "" {
			return "", fmt.Errorf("resume: no journal matching %q in %s", ref, dir)
		}
		return "", fmt.Errorf("resume: no journals in %s", dir)
	case 1:
		return paths[0], nil
	}
	stems := make([]string, len(paths))
	for i, p := range paths {
		stems[i] = stem(p)
	}
	return "", fmt.Errorf("resume: %d journals in %s (%s); pass a hash prefix to pick one",
		len(paths), dir, strings.Join(stems, ", "))
}

func stem(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".jsonl")
}
