package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/store"
)

// Reference digests (SHA-256) of outputs that do not depend on the seed:
// `hpcc run linpack/delta -json` at its defaults, which are E4's
// configuration, and the full `hpcc report`. A simulated result that
// drifts fails the benchmark's correctness check.
const (
	e4Digest     = "34f8a20062ae7d86df7df46b808a6db67ef7be983855211fef7130799039acde"
	reportDigest = "f823e0be9136fd3d79c9c33173b2e3cde095bea413b7befa717f2ef2bd24c623"
)

// sweepPoints is the size of one sweep-fleet request. Its points cost
// about 1.5 ms of simulation each, so the disk latency on the serialized
// emit path (cache puts, journal fsyncs) is a share of a sweep's time,
// not all of it: with sub-millisecond points it was, and a shared disk
// swung a run's figures by half. See README.md.
const sweepPoints = 400

// sweepWarmup is how many of those points the set-up's warm-up runs.
const sweepWarmup = 80

// env is one invocation's context: where scratch files go, the seed,
// and the host's core count, which bounds pool sizes and connections.
type env struct {
	dir     string
	seed    uint64
	workers int
}

// fixture is one workload set up and ready to serve requests.
type fixture interface {
	// request runs one request and returns its rendered output and
	// results. A nil tracer runs the stack without decorators.
	request(ctx context.Context, tr *tracer, n int) ([]byte, []harness.Result, error)
	// jobs is the number of jobs one request runs.
	jobs() int
	// wrong returns how many jobs of a request produced a wrong result.
	wrong(out []byte, results []harness.Result) int
	// after cleans up after request n, outside its latency.
	after(n int)
	// prepare computes, once per invocation and outside set-up and the
	// timed requests, the reference outputs are checked against.
	prepare(ctx context.Context) error
	// tie checks, once per invocation, that the benchmark's output is
	// what hpcc prints. anchor is `hpcc run linpack/delta -json`.
	tie(ctx context.Context, anchor []byte) error
	close()
}

// workloadDef is one workload; BENCHMARK.json gives the reason each
// exists.
type workloadDef struct {
	name string
	// setup builds a fresh fixture; k numbers the repeated set-ups so
	// each gets its own files. tr is non-nil for the traced run.
	setup func(ctx context.Context, e *env, k int, tr *tracer) (fixture, error)
}

var workloadDefs = []workloadDef{
	{"e4-cold", setupE4},
	{"sweep-fleet", setupSweep},
	{"report-warm", setupReport},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// wrapExec puts a timing decorator on ex when tracing.
func wrapExec(tr *tracer, name, caller string, leaf bool, ex harness.Executor) harness.Executor {
	if tr == nil {
		return ex
	}
	return &tracedExecutor{tr: tr, name: name, caller: caller, leaf: leaf, inner: ex}
}

// render runs core.WriteResults, the report's text format.
func render(tr *tracer, results []harness.Result) ([]byte, error) {
	if tr != nil {
		id := tr.begin("core.render", -1)
		defer tr.end(id)
	}
	var buf bytes.Buffer
	err := core.WriteResults(&buf, results)
	return buf.Bytes(), err
}

// e4-cold: `hpcc run linpack/delta -json` at E4's configuration (N=25000
// on 16x33 = 528 Delta processors, phantom), with no cache.

type e4Fixture struct {
	e       *env
	jobList []harness.Job
}

func setupE4(ctx context.Context, e *env, _ int, _ *tracer) (fixture, error) {
	w, err := harness.Lookup("linpack/delta")
	if err != nil {
		return nil, err
	}
	// Warm-up: the scaled-down configuration runs the same code paths,
	// so lazy initialisation is paid here rather than in the first
	// timed request.
	if _, err := w.Run(ctx, harness.Params{Quick: true}); err != nil {
		return nil, fmt.Errorf("e4-cold warm-up: %w", err)
	}
	return &e4Fixture{e: e, jobList: []harness.Job{{Workload: w}}}, nil
}

func (f *e4Fixture) jobs() int { return len(f.jobList) }

func (f *e4Fixture) request(ctx context.Context, tr *tracer, _ int) ([]byte, []harness.Result, error) {
	if tr != nil {
		tr.setJobs(f.jobList)
	}
	ex := wrapExec(tr, "harness.local", "", true, harness.LocalExecutor{Workers: f.e.workers})
	results, err := ex.Execute(ctx, f.jobList, nil)
	if err != nil {
		return nil, results, err
	}
	if tr != nil {
		id := tr.begin("core.render", -1)
		defer tr.end(id)
	}
	s, err := results[0].JSON()
	return []byte(s), results, err
}

func (f *e4Fixture) wrong(out []byte, results []harness.Result) int {
	if len(results) != 1 || digest(out) != e4Digest {
		return 1
	}
	return 0
}

func (f *e4Fixture) tie(_ context.Context, anchor []byte) error {
	if digest(anchor) != e4Digest {
		return fmt.Errorf("hpcc run linpack/delta -json digest %s, want %s", digest(anchor), e4Digest)
	}
	return nil
}

func (f *e4Fixture) prepare(context.Context) error { return nil }

// after collects the heap: each request stands for a fresh `hpcc run`
// process, which starts with an empty heap.
func (f *e4Fixture) after(int) { runtime.GC() }

func (f *e4Fixture) close() {}

// sweep-fleet: seeded cheap points through
// JournalingExecutor{CachingExecutor{RemoteExecutor}} to an in-process
// worker server over loopback, then rendering and a store append.

type sweepFixture struct {
	e       *env
	dir     string
	jobList []harness.Job
	header  []journal.Job
	fp      string
	ref     []byte
	refRes  []harness.Result
	plain   *workerServer // serves the untraced stack
	traced  *workerServer // serves the traced stack; nil when untraced
}

// workerServer is an in-process `hpcc worker -listen` on loopback.
type workerServer struct {
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
}

func startWorker(ctx context.Context, reg *harness.Registry) (*workerServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("worker listen: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &workerServer{addr: ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		srv := &harness.RemoteWorkerServer{Registry: reg}
		srv.Serve(ctx, ln) // returns ctx.Err() once stopped
	}()
	return s, nil
}

func (s *workerServer) stop() {
	s.cancel()
	<-s.done
}

// sweepJobs draws the sweep from the seed: a workload family, seeded
// parameter values, and a distinct per-job seed, so every point is a
// distinct cache key.
func sweepJobs(seed uint64, n int) ([]harness.Job, error) {
	rng := rand.New(rand.NewPCG(seed, 0x68706363))
	logUniform := func(lo, hi float64) float64 {
		return math.Pow(10, math.Log10(lo)+rng.Float64()*(math.Log10(hi)-math.Log10(lo)))
	}
	sizes := func(lo, hi float64) string { return strconv.FormatFloat(logUniform(lo, hi), 'g', 3, 64) }
	pick := func(vals ...string) string { return vals[rng.IntN(len(vals))] }
	families := []struct {
		id     string
		values func() map[string]string
	}{
		{"nren/link-classes", func() map[string]string { return map[string]string{"bytes": sizes(1e3, 1e9)} }},
		{"nren/transfer-matrix", func() map[string]string { return map[string]string{"bytes": sizes(1e3, 1e9)} }},
		{"nren/storm", func() map[string]string { return map[string]string{"bytes": sizes(1e3, 1e9)} }},
		{"nren/traffic", func() map[string]string {
			return map[string]string{
				"flows":      strconv.Itoa(80 + rng.IntN(120)),
				"rate":       pick("0.5", "1", "2", "4"),
				"mean-bytes": sizes(1e5, 1e8),
			}
		}},
		{"micro/pingpong", func() map[string]string {
			return map[string]string{
				"procs":    pick("16", "32", "64"),
				"reps":     strconv.Itoa(5 + rng.IntN(15)),
				"maxbytes": pick("65536", "262144", "1048576"),
			}
		}},
		{"app/nas-ep", func() map[string]string {
			return map[string]string{
				"n":     strconv.Itoa(int(logUniform(1e6, 1e8))),
				"procs": pick("64", "128", "256"),
			}
		}},
		{"linpack/delta", func() map[string]string {
			return map[string]string{
				"n":  strconv.Itoa(768 + 64*rng.IntN(21)),
				"nb": pick("8", "16", "32"),
				"pr": pick("2", "4"),
				"pc": pick("4", "8"),
			}
		}},
		{"E5", func() map[string]string { return nil }},
	}
	// Every family gets the same share of the points, in seeded order,
	// so seeds vary the points but not the mix's cost.
	order := make([]int, n)
	for i := range order {
		order[i] = i % len(families)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	jobs := make([]harness.Job, n)
	seen := make(map[string]bool, n)
	for i := range jobs {
		fam := families[order[i]]
		w, err := harness.Lookup(fam.id)
		if err != nil {
			return nil, err
		}
		p := harness.Params{Seed: 1 + rng.Int64N(1<<40), Values: fam.values()}
		if seen[jobKey(fam.id, p)] {
			return nil, fmt.Errorf("sweep point %d repeats an earlier one", i)
		}
		seen[jobKey(fam.id, p)] = true
		jobs[i] = harness.Job{Workload: w, Params: p}
	}
	return jobs, nil
}

func setupSweep(ctx context.Context, e *env, k int, tr *tracer) (fixture, error) {
	jobs, err := sweepJobs(e.seed, sweepPoints)
	if err != nil {
		return nil, err
	}
	f, err := newSweepFixture(ctx, e, filepath.Join(e.dir, fmt.Sprintf("sweep-%d", k)), jobs, tr)
	if err != nil {
		return nil, err
	}
	// Warm-up: a slice of the sweep through the whole stack, so the
	// first timed request does not pay for lazy initialisation.
	if _, _, err = f.sweep(ctx, nil, filepath.Join(f.dir, "warm-up"), jobs[:sweepWarmup]); err != nil {
		f.close()
		return nil, fmt.Errorf("sweep-fleet warm-up: %w", err)
	}
	return f, nil
}

// newSweepFixture starts the worker servers for jobs: one on the
// default registry and, when tracing, one on a traced registry.
func newSweepFixture(ctx context.Context, e *env, dir string, jobs []harness.Job, tr *tracer) (*sweepFixture, error) {
	f := &sweepFixture{e: e, dir: dir, jobList: jobs, fp: harness.Default.Fingerprint()}
	var err error
	if f.plain, err = startWorker(ctx, harness.Default); err != nil {
		return nil, err
	}
	if tr != nil {
		reg, err := tracedRegistry(harness.Default, tr)
		if err == nil {
			f.traced, err = startWorker(ctx, reg)
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *sweepFixture) jobs() int { return len(f.jobList) }

// prepare renders the sweep on a plain LocalExecutor.
func (f *sweepFixture) prepare(ctx context.Context) error {
	results, err := harness.LocalExecutor{Workers: f.e.workers}.Execute(ctx, f.jobList, nil)
	if err != nil {
		return fmt.Errorf("sweep reference: %w", err)
	}
	f.refRes = results
	f.ref, err = render(nil, results)
	return err
}

func (f *sweepFixture) request(ctx context.Context, tr *tracer, n int) ([]byte, []harness.Result, error) {
	return f.sweep(ctx, tr, filepath.Join(f.dir, strconv.Itoa(n)), f.jobList)
}

// sweep runs jobs the way `hpcc sweep -journal -cache -remote -store`
// does, with all of its files under dir.
func (f *sweepFixture) sweep(ctx context.Context, tr *tracer, dir string, jobs []harness.Job) ([]byte, []harness.Result, error) {
	header := make([]journal.Job, len(jobs))
	for i, j := range jobs {
		header[i] = journal.Job{WorkloadID: j.Workload.ID(), Params: j.Params}
	}
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, nil, err
	}
	jnl, err := journal.Create(filepath.Join(dir, "journal"), journal.Header{Mode: "sweep", Fingerprint: f.fp, Jobs: header})
	if err != nil {
		return nil, nil, err
	}
	remote := &harness.RemoteExecutor{Addrs: []string{f.plain.addr, f.plain.addr}}
	var rc harness.ResultCache = c
	var sink harness.JournalSink = jnl
	if tr != nil {
		tr.setJobs(jobs)
		remote.Addrs = []string{f.traced.addr, f.traced.addr}
		remote.Dial = tr.dial
		rc = tracedCache{inner: c, tr: tr}
		sink = tracedSink{inner: jnl, tr: tr}
	}
	caching := &harness.CachingExecutor{Inner: wrapExec(tr, "harness.remote", "harness.caching", true, remote), Cache: rc}
	journaling := &harness.JournalingExecutor{Inner: wrapExec(tr, "harness.caching", "harness.journaling", false, caching), Sink: sink}
	results, err := wrapExec(tr, "harness.journaling", "", false, journaling).Execute(ctx, jobs, nil)
	if err != nil {
		jnl.Close()
		return nil, results, err
	}
	if caching.Misses != len(jobs) || caching.PutErrors != 0 || journaling.RecordErrors != 0 {
		jnl.Close()
		return nil, results, fmt.Errorf("sweep: %d misses of %d, %d put errors, %d journal errors",
			caching.Misses, len(jobs), caching.PutErrors, journaling.RecordErrors)
	}
	if err := jnl.Remove(); err != nil {
		return nil, results, err
	}
	out, err := render(tr, results)
	if err != nil {
		return nil, results, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, results, err
	}
	entries := make([]store.Entry, len(results))
	for i, r := range results {
		entries[i] = store.Entry{Params: jobs[i].Params, Result: r}
	}
	var id int
	if tr != nil {
		id = tr.begin("store.append", -1)
	}
	_, err = st.Append(store.Meta{Tag: "bench"}, entries)
	if tr != nil {
		tr.end(id)
	}
	return out, results, err
}

func (f *sweepFixture) wrong(out []byte, results []harness.Result) int {
	bad := len(f.jobList) - len(results)
	for i, r := range results {
		if !sameResult(r, f.refRes[i]) {
			bad++
		}
	}
	if bad == 0 && !bytes.Equal(out, f.ref) {
		bad = len(f.jobList)
	}
	return bad
}

// after removes the request's files and, as for e4-cold, collects the
// heap: each request stands for a fresh `hpcc sweep` process.
func (f *sweepFixture) after(n int) {
	os.RemoveAll(filepath.Join(f.dir, strconv.Itoa(n)))
	runtime.GC()
}

func (f *sweepFixture) tie(context.Context, []byte) error { return nil }

func (f *sweepFixture) close() {
	if f.plain != nil {
		f.plain.stop()
	}
	if f.traced != nil {
		f.traced.stop()
	}
}

func sameResult(a, b harness.Result) bool {
	x, errA := a.JSON()
	y, errB := b.JSON()
	return errA == nil && errB == nil && x == y
}

// report-warm: `hpcc report -cache DIR` on a cache the set-up filled with
// one cold report; one client, closed loop.

type reportFixture struct {
	e     *env
	dir   string
	cold  []byte
	njobs int
}

func setupReport(ctx context.Context, e *env, k int, _ *tracer) (fixture, error) {
	f := &reportFixture{e: e, dir: filepath.Join(e.dir, fmt.Sprintf("report-cache-%d", k))}
	c, err := cache.Open(f.dir)
	if err != nil {
		return nil, err
	}
	ex := &harness.CachingExecutor{Inner: harness.LocalExecutor{Workers: e.workers}, Cache: c}
	results, err := core.NewProgram().ReportResultsExec(ctx, ex, nil)
	if err != nil {
		return nil, fmt.Errorf("report-warm cold fill: %w", err)
	}
	if ex.Misses != len(results) || ex.PutErrors != 0 {
		return nil, fmt.Errorf("report-warm cold fill: %d misses of %d, %d put errors", ex.Misses, len(results), ex.PutErrors)
	}
	if f.cold, err = render(nil, results); err != nil {
		return nil, err
	}
	f.njobs = len(results)
	if digest(f.cold) != reportDigest {
		return nil, fmt.Errorf("cold report digest %s, want %s", digest(f.cold), reportDigest)
	}
	return f, nil
}

func (f *reportFixture) jobs() int { return f.njobs }

func (f *reportFixture) prepare(context.Context) error { return nil }

// after does nothing: report-warm is one long-lived client, whose heap
// carries over from request to request.
func (f *reportFixture) after(int) {}

func (f *reportFixture) request(ctx context.Context, tr *tracer, _ int) ([]byte, []harness.Result, error) {
	c, err := cache.Open(f.dir)
	if err != nil {
		return nil, nil, err
	}
	prog := core.NewProgram()
	var rc harness.ResultCache = c
	if tr != nil {
		jobs := make([]harness.Job, 0, len(prog.Experiments()))
		for _, x := range prog.Experiments() {
			w, err := prog.ExperimentWorkload(x.ID)
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, harness.Job{Workload: w})
		}
		tr.setJobs(jobs)
		rc = tracedCache{inner: c, tr: tr}
	}
	caching := &harness.CachingExecutor{Inner: wrapExec(tr, "harness.local", "harness.caching", true, harness.LocalExecutor{Workers: f.e.workers}), Cache: rc}
	results, err := prog.ReportResultsExec(ctx, wrapExec(tr, "harness.caching", "", false, caching), nil)
	if err != nil {
		return nil, results, err
	}
	if caching.Misses != 0 {
		return nil, results, fmt.Errorf("warm report missed the cache %d times", caching.Misses)
	}
	out, err := render(tr, results)
	return out, results, err
}

func (f *reportFixture) wrong(out []byte, results []harness.Result) int {
	if !bytes.Equal(out, f.cold) {
		return f.jobs()
	}
	return f.jobs() - len(results)
}

// tie runs `hpcc report -cache DIR` through cli.Main on the same cache.
func (f *reportFixture) tie(ctx context.Context, _ []byte) error {
	var out, errb bytes.Buffer
	if code := cli.MainContext(ctx, []string{"report", "-cache", f.dir}, &out, &errb); code != 0 {
		return fmt.Errorf("hpcc report -cache: exit %d: %s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), f.cold) {
		return errors.New("hpcc report -cache output differs from the benchmark's report")
	}
	return nil
}

func (f *reportFixture) close() {}
