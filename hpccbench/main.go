// Command hpccbench is the repository's benchmark. It drives the layers
// the hpcc commands compose — harness.Lookup and Job, the executor stack
// JournalingExecutor{CachingExecutor{LocalExecutor|RemoteExecutor}},
// cache.Open, journal.Create, store.Open/Append and core.WriteResults —
// through their exported APIs, on one of three workloads generated from
// a seed, checks every output, and prints every metric by name and unit.
//
//	hpccbench --workload e4-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates plain and traced requests, puts a timing decorator at every
// exported seam on the traced ones, and reports per-layer metrics, a
// span file and a CPU profile. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md lists the metrics and what each should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/linpack"
)

// setupRuns is how many times the set-up runs; setup_s is their median.
const setupRuns = 5

// deadline bounds one invocation, so a hung layer fails the run instead
// of stalling it.
const deadline = 170 * time.Second

func main() {
	os.Exit(run())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "workload: e4-cold, sweep-fleet or report-warm")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long the timed requests run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: hpccbench --workload e4-cold|sweep-fleet|report-warm --seed N --seconds S --trace 0|1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := bench(ctx, def, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hpccbench:", err)
		return 1
	}
	return 0
}

func bench(ctx context.Context, def *workloadDef, seed uint64, seconds time.Duration, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	base := filepath.Join(root, ".bench_build", "hpccbench")
	e := &env{dir: filepath.Join(base, "run-"+strconv.Itoa(os.Getpid())), seed: seed, workers: runtime.NumCPU()}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)
	outDir := filepath.Join(base, "out", fmt.Sprintf("%s-seed%d-trace%d", def.name, seed, b2i(traced)))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	host := hostFacts(root, seed)
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	var tr *tracer
	runs := setupRuns
	if traced {
		tr = newTracer()
		runs = 1 // set-up time is an untraced metric
	}
	var fx fixture
	var setups []float64
	for k := 0; k < runs; k++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		fx, err = def.setup(ctx, e, k, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer fx.close()
	if err := fx.prepare(ctx); err != nil {
		return err
	}

	// The timed part starts from a collected heap, with set-up memory
	// returned to the OS, so peak_rss_mb reflects the requests.
	debug.FreeOSMemory()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	lp := loop(ctx, fx, tr, seconds)
	if traced {
		pprof.StopCPUProfile()
	}
	var problems []string
	problems = append(problems, lp.problems...)

	// One-time checks, after the timed part so they add nothing to its
	// peak memory: `hpcc run linpack/delta -json` through cli.Main gives
	// the paper comparison and ties the benchmark to what hpcc prints.
	anchor, gflops, err := anchorRun(ctx)
	if err != nil {
		problems = append(problems, err.Error())
	} else if err := fx.tie(ctx, anchor); err != nil {
		problems = append(problems, err.Error())
	}

	var vals map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		vals, err = layerMetrics(ctx, tr, lp, gflops)
		if err != nil {
			problems = append(problems, err.Error())
		}
		if err := writeArtifacts(outDir, tr, prof.Bytes()); err != nil {
			return err
		}
	} else {
		// Medians over the requests: the host's disk and neighbours
		// stall some requests, and a median moves least with them.
		wall := median(lp.lats)
		vals = map[string]float64{
			"setup_s":       median(setups),
			"wall_s":        wall,
			"jobs_per_s":    float64(fx.jobs()) / wall,
			"report_p50_ms": wall * 1e3,
			"cpu_s":         median(lp.cpu),
			"alloc_mb":      median(lp.allocs) / 1e6,
			"peak_rss_mb":   median(lp.resident) / 1e6,
			"paper_err_pct": math.Abs(gflops-13) / 13 * 100,
		}
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{vals[d.name], d.unit}
	}

	res := result{
		Correct:   lp.failed == 0 && len(problems) == 0,
		Attempted: lp.attempted,
		Failed:    lp.failed,
		Metrics:   m,
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "hpccbench: ... and %d more failed checks\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "hpccbench: check failed:", p)
	}
	printTable(def, defs, len(lp.lats), res)
	facts := map[string]any{"host": host, "workload": def.name, "trace": traced, "requests": len(lp.lats), "problems": problems, "result": res}
	if len(lp.lats) <= 1000 {
		facts["latencies_s"] = lp.lats
	}
	art, err := json.MarshalIndent(facts, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(art, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// loopStats is what the timed requests measured.
type loopStats struct {
	lats      []float64 // untraced request latencies, seconds
	tlats     []float64 // traced request latencies, seconds
	attempted int
	failed    int
	problems  []string
	cpu       []float64 // user+sys CPU seconds of each plain request
	allocs    []float64 // heap bytes allocated by each plain request
	resident  []float64 // bytes the runtime holds right after each plain request
	rt        rtDelta   // runtime deltas over the traced requests
}

// loop runs requests back to back, one client in a closed loop, until
// seconds have passed. With a tracer, even requests run plain and odd
// ones traced, so both see the same conditions; each traced output must
// equal the plain one byte for byte.
func loop(ctx context.Context, fx fixture, tr *tracer, seconds time.Duration) loopStats {
	var st loopStats
	var plainOut []byte
	start := time.Now()
	minRequests := 1
	if tr != nil {
		minRequests = 2
	}
	for n := 0; n < minRequests || time.Since(start) < seconds; n++ {
		traced := tr != nil && n%2 == 1
		var use *tracer
		var before rtSample
		var root int
		if traced {
			use = tr
			before = readRuntime()
			root = tr.begin("request", -1)
		}
		cpu0, alloc0 := cpuTime(), allocated()
		t0 := time.Now()
		out, results, err := fx.request(ctx, use, n)
		lat := time.Since(t0).Seconds()
		cpu, alloc := cpuTime()-cpu0, allocated()-alloc0
		if traced {
			tr.end(root)
		}
		st.attempted += fx.jobs()
		switch {
		case err != nil:
			st.failed += fx.jobs()
			st.problems = append(st.problems, fmt.Sprintf("request %d: %v", n, err))
		default:
			if bad := fx.wrong(out, results); bad > 0 {
				st.failed += bad
				st.problems = append(st.problems, fmt.Sprintf("request %d: %d wrong results", n, bad))
			}
		}
		if traced {
			st.rt.add(before, readRuntime())
			st.tlats = append(st.tlats, lat)
			for _, p := range tr.finishRequest() {
				st.problems = append(st.problems, fmt.Sprintf("request %d: span %s", n, p))
			}
			if plainOut != nil && !bytes.Equal(out, plainOut) {
				st.failed += fx.jobs()
				st.problems = append(st.problems, fmt.Sprintf("request %d: traced output differs from untraced", n))
			}
		} else {
			st.lats = append(st.lats, lat)
			st.cpu = append(st.cpu, cpu)
			st.allocs = append(st.allocs, float64(alloc))
			st.resident = append(st.resident, resident())
			plainOut = out
		}
		fx.after(n)
		if ctx.Err() != nil {
			st.problems = append(st.problems, "deadline: "+ctx.Err().Error())
			break
		}
	}
	return st
}

// anchorRun runs `hpcc run linpack/delta -json` — E4's configuration —
// through cli.Main and returns its output and simulated GFLOPS.
func anchorRun(ctx context.Context) ([]byte, float64, error) {
	var out, errb bytes.Buffer
	if code := cli.MainContext(ctx, []string{"run", "linpack/delta", "-json"}, &out, &errb); code != 0 {
		return nil, 0, fmt.Errorf("hpcc run linpack/delta: exit %d: %s", code, errb.String())
	}
	var r harness.Result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, 0, fmt.Errorf("hpcc run linpack/delta -json: %w", err)
	}
	g, ok := r.Metric("gflops")
	if !ok {
		return nil, 0, fmt.Errorf("hpcc run linpack/delta -json: no gflops metric")
	}
	return out.Bytes(), g.Value, nil
}

// layerMetrics turns the traced requests into per-layer metrics. Every
// count and time is per traced request. The nx and linpack figures come
// from one extra linpack.Run of E4's configuration, outside the timed
// requests, whose GFLOPS must equal the anchor's bit for bit.
func layerMetrics(ctx context.Context, tr *tracer, lp loopStats, gflops float64) (map[string]float64, error) {
	n := float64(tr.requests)
	count := func(name string) float64 { return float64(len(tr.durs[name])) / n }
	total := func(name string) float64 { return sum(tr.durs[name]) / n }
	us := func(name string, q float64) float64 { return percentile(tr.durs[name], q) * 1e6 }
	hitRatio := 0.0
	if gets := len(tr.durs["cache.get"]); gets > 0 {
		hitRatio = float64(tr.hits) / float64(gets)
	}
	m := map[string]float64{
		"harness.journaling.self_s": tr.self["harness.journaling"] / n,
		"journal.record_n":          count("journal.record"),
		"journal.record_p50_us":     us("journal.record", 0.50),
		"journal.record_p99_us":     us("journal.record", 0.99),
		"harness.caching.self_s":    tr.self["harness.caching"] / n,
		"cache.put_n":               count("cache.put"),
		"cache.put_p50_us":          us("cache.put", 0.50),
		"cache.put_p99_us":          us("cache.put", 0.99),
		"cache.get_n":               count("cache.get"),
		"cache.get_p50_us":          us("cache.get", 0.50),
		"cache.hit_ratio":           hitRatio,
		"harness.remote.self_s":     tr.self["harness.remote"] / n,
		"harness.wire.frames":       float64(tr.frames.Load()) / n,
		"harness.wire.bytes_out":    float64(tr.bytesOut.Load()) / n,
		"harness.wire.bytes_in":     float64(tr.bytesIn.Load()) / n,
		"harness.wire.dials":        float64(tr.dials.Load()) / n,
		"harness.local.self_s":      tr.self["harness.local"] / n,
		"workload.run_n":            count("workload.run"),
		"workload.run_s":            total("workload.run"),
		"workload.run_p50_us":       us("workload.run", 0.50),
		"core.render_s":             total("core.render"),
		"store.append_s":            total("store.append"),
		"runtime.mutex_wait_s":      lp.rt.mutexWait / n,
		"runtime.sched_wait_p99_us": lp.rt.schedP99() * 1e6,
		"runtime.gc_cycles":         float64(lp.rt.gcCycles) / n,
		"trace.overhead_pct":        (sum(lp.tlats)/float64(len(lp.tlats))/(sum(lp.lats)/float64(len(lp.lats))) - 1) * 100,
	}
	cfg := core.NewProgram().DeltaLinpack()
	cfg.Ctx = ctx
	t0 := time.Now()
	out, err := linpack.Run(cfg)
	el := time.Since(t0)
	if err != nil {
		return m, fmt.Errorf("linpack.Run of E4: %w", err)
	}
	r := out.Result
	wait := 0.0
	for _, p := range r.Procs {
		wait += p.RecvWait
	}
	m["linpack.run_s"] = el.Seconds()
	m["nx.msgs"] = float64(r.TotalMsgs)
	m["nx.bytes"] = float64(r.TotalBytes)
	m["nx.flops"] = r.TotalFlops
	m["nx.recv_wait_vs"] = wait
	m["nx.host_ns_per_msg"] = float64(el.Nanoseconds()) / float64(r.TotalMsgs)
	if out.GFlops != gflops {
		return m, fmt.Errorf("linpack.Run of E4 gave %v GFLOPS, hpcc run linpack/delta %v", out.GFlops, gflops)
	}
	return m, nil
}

func writeArtifacts(dir string, tr *tracer, prof []byte) error {
	spans, err := json.Marshal(map[string]any{"spans": tr.kept, "dropped": tr.dropped})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644)
}

// printTable prints every metric by name and unit, with its meaning or
// the end-to-end metric and workload it should move.
func printTable(def *workloadDef, defs []metricDef, requests int, res result) {
	fmt.Printf("%s: %d plain requests, %d jobs attempted, %d failed\n", def.name, requests, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("  %-28s %14.6g %-6s %s\n", d.name, m.Value, m.Unit, d.moves)
	}
}

// Runtime figures read through runtime/metrics.

const (
	rtAllocs = "/gc/heap/allocs:bytes"
	rtMutex  = "/sync/mutex/wait/total:seconds"
	rtGC     = "/gc/cycles/total:gc-cycles"
	rtSched  = "/sched/latencies:seconds"
)

// resident returns the memory the Go runtime holds from the OS: mapped
// and not released. For this pure-Go process that is its resident set,
// as the runtime accounts it. Sampled right after a request, it sees the
// request's peak, since the runtime returns memory to the OS only lazily.
func resident() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// allocated returns the heap bytes allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: rtAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type rtSample struct {
	gcCycles  uint64
	mutexWait float64
	sched     *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rtMutex}, {Name: rtGC}, {Name: rtSched}}
	metrics.Read(s)
	return rtSample{
		mutexWait: s[0].Value.Float64(),
		gcCycles:  s[1].Value.Uint64(),
		sched:     s[2].Value.Float64Histogram(),
	}
}

// rtDelta accumulates runtime deltas over a set of intervals.
type rtDelta struct {
	mutexWait float64
	gcCycles  uint64
	buckets   []float64
	counts    []uint64
}

func (d *rtDelta) add(a, b rtSample) {
	d.mutexWait += b.mutexWait - a.mutexWait
	d.gcCycles += b.gcCycles - a.gcCycles
	if d.counts == nil {
		d.buckets = b.sched.Buckets
		d.counts = make([]uint64, len(b.sched.Counts))
	}
	for i := range d.counts {
		d.counts[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// schedP99 is the 99th percentile scheduling latency: the upper bound of
// the histogram bucket holding it (its lower bound for the open last one).
func (d *rtDelta) schedP99() float64 {
	var total uint64
	for _, c := range d.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d.counts {
		seen += c
		if seen >= rank {
			if hi := d.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return d.buckets[i]
		}
	}
	return 0
}

// cpuTime returns the process's user+sys CPU seconds (getrusage).
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostFacts records what a result was measured on.
func hostFacts(root string, seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest(root),
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files: the
// identity of the code measured where no commit is recorded.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	var all bytes.Buffer
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(&all, "%s\x00%d\x00", rel, len(b))
		all.Write(b)
	}
	return digest(all.Bytes())[:16]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
