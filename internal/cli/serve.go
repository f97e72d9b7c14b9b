package cli

// The `hpcc serve` subcommand: the run/sweep/report/trend pipeline as a
// long-lived HTTP JSON API. The process keeps the registry, the result
// cache and the run store warm across requests, so a dashboard or a CI
// fleet can ask for exhibits without paying process startup per query.
// Identical concurrent requests are coalesced through a single flight
// and answered from one workload run; repeat requests are served from
// the content-addressed cache when -cache is set. Every response carries
// an X-HPCC-Cache header saying which of those paths it took.
//
// Compute is admission-controlled: at most -pool requests run executors
// at once, at most -queue more wait for a slot (respecting their request
// context while they wait), and anything past that bounces immediately
// with 429 + Retry-After instead of piling executors onto the host.
// Cache hits and trend/workload listings bypass admission — they do no
// compute. With -budget set, each admitted request additionally runs
// under that wall-clock deadline.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/store"
)

func cmdServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "address to listen on")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers per sweep/report request")
	shards := fs.Int("shards", 0, "fan each sweep/report out to N hpcc worker processes")
	remote := fs.String("remote", "", "fan each sweep/report out to hpcc worker -listen fleet at these comma-separated addresses")
	storeDir := fs.String("store", "", "serve /api/v1/trend from the run store in this directory (e.g. "+store.DefaultDir+")")
	pool := fs.Int("pool", 4, "max compute requests running executors at once; the rest queue or bounce")
	queue := fs.Int("queue", 16, "max compute requests waiting for an executor slot before new ones get 429")
	drain := fs.Duration("drain", 10*time.Second, "on SIGINT/SIGTERM, stop accepting and let in-flight requests finish for up to this long before closing (0 = close immediately)")
	var cf cacheFlags
	cf.register(fs)
	var xf collectivesFlags
	xf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if fs.NArg() > 0 {
		return errors.New("serve: takes no arguments")
	}
	if err := xf.apply(); err != nil {
		return err
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	// Fail a bad configuration now, not on the first request.
	if err := validateExecutorConfig(*shards, *jobs, *remote); err != nil {
		return err
	}
	if *pool < 1 {
		return fmt.Errorf("-pool must be at least 1 (got %d)", *pool)
	}
	if *queue < 0 {
		return fmt.Errorf("-queue must be non-negative (got %d; 0 means over-capacity requests bounce immediately)", *queue)
	}

	srv := &server{
		cache:    resultCache,
		storeDir: *storeDir,
		stderr:   stderr,
		budget:   bf.d,
		admit:    newAdmitter(*pool, *queue),
		newExec: func() (harness.Executor, error) {
			ex, _, err := newExecutor(*shards, *jobs, *remote, tf.token, nil, stderr)
			return ex, err
		},
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The actual address matters when -addr used port 0 (tests).
	fmt.Fprintf(stdout, "hpcc serve: listening on http://%s\n", ln.Addr())
	// Request contexts descend from the drained context, not ctx
	// itself: otherwise a SIGTERM would kill every in-flight request
	// instantly and the Shutdown grace below would have nothing left to
	// protect.
	reqCtx, stopGrace := harness.WithDrain(ctx, *drain)
	defer stopGrace()
	hs := &http.Server{
		Handler:     srv.handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	errc := make(chan error, 1)
	//lint:ignore hpccwire hs.Serve is shut down by the ctx-driven Shutdown in the select below; threading ctx into the accept loop itself is http.Server's job
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful drain: the listener closes (new requests refused),
		// in-flight requests get the -drain grace, then the door closes
		// hard.
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		hs.Shutdown(sctx)
		return nil
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
}

// server holds what requests share: the cache, the store location, and
// the flight table that coalesces identical concurrent requests.
// Executors are built per request — CachingExecutor keeps per-sweep
// hit/miss counters, so sharing one across requests would race.
type server struct {
	reg      *harness.Registry // nil means the Default registry
	cache    *cache.Cache
	storeDir string
	stderr   io.Writer
	budget   time.Duration // per-request wall-clock deadline; 0 = unlimited
	admit    *admitter     // nil means unbounded admission (bare test servers)
	newExec  func() (harness.Executor, error)
	flight   cache.Flight
}

func (s *server) registry() *harness.Registry {
	if s.reg != nil {
		return s.reg
	}
	return harness.Default
}

// errServeSaturated is what admission returns when both the executor
// pool and the waiting queue are full; computeError turns it into 429.
var errServeSaturated = errors.New("serve: all executor slots busy and the admission queue is full")

// admitter bounds the compute the server will take on at once: len(slots)
// requests run executors, up to maxQueue more wait for a slot, and
// anything past that bounces. The queue is counted, not stored — waiters
// park in acquire's select, so a cancelled client leaves the queue the
// moment its context dies instead of holding a position it will never use.
type admitter struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

func newAdmitter(pool, queue int) *admitter {
	return &admitter{slots: make(chan struct{}, pool), maxQueue: int64(queue)}
}

// acquire claims an executor slot, queueing within the bound. The caller
// must invoke release exactly once when its compute finishes.
func (a *admitter) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return nil, errServeSaturated
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("request gave up while queued for an executor slot: %w", ctx.Err())
	}
}

// acquire is the nil-tolerant wrapper handlers use: a server built
// without an admitter (unit tests) admits everything.
func (s *server) acquire(ctx context.Context) (release func(), err error) {
	if s.admit == nil {
		return func() {}, nil
	}
	return s.admit.acquire(ctx)
}

// computeCtx layers the per-request -budget deadline onto a request
// context. The deadline is applied after admission, so time spent
// queued does not eat the budget.
func (s *server) computeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.budget)
}

// computeError answers a failed compute request with the right status:
// 429 + Retry-After when admission bounced it, 503 when it was cancelled
// or timed out while queued or running, 500 otherwise.
func computeError(w http.ResponseWriter, err error, format string, args ...any) {
	switch {
	case errors.Is(err, errServeSaturated):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, format, args...)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, format, args...)
	default:
		httpError(w, http.StatusInternalServerError, format, args...)
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /api/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /api/v1/run", s.handleRun)
	mux.HandleFunc("POST /api/v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /api/v1/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/trend", s.handleTrend)
	return mux
}

// httpError answers with a JSON error body, so API clients never have to
// parse text/plain out of an application/json endpoint.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeStrict parses a JSON request body into v, rejecting unknown
// fields and trailing garbage — a typo'd field name must be a 400, not a
// silently ignored option.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("trailing data after the JSON body")
	}
	return nil
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID          string          `json:"id"`
		Description string          `json:"description"`
		Params      []harness.Param `json:"params,omitempty"`
	}
	out := []entry{}
	for _, wl := range s.registry().All() {
		out = append(out, entry{ID: wl.ID(), Description: wl.Description(), Params: wl.ParamSpace()})
	}
	writeJSONResponse(w, out)
}

// runOutcome is what one coalesced run flight delivers to every waiter:
// the result plus which path produced it.
type runOutcome struct {
	res    harness.Result
	status string // hit | miss | bypass
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID     string            `json:"id"`
		Quick  bool              `json:"quick"`
		Seed   int64             `json:"seed"`
		Values map[string]string `json:"values"`
	}
	if err := decodeStrict(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, "missing workload id")
		return
	}
	wl, err := s.registry().Lookup(req.ID)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	params := harness.Params{Quick: req.Quick, Seed: req.Seed, Values: req.Values}
	version := harness.VersionOf(wl)
	// The flight key is the cache key: identical (workload, params,
	// kernel version) triples in flight at once run the workload once,
	// and every waiter shares the leader's outcome.
	key := "run\x00" + cache.Key(wl.ID(), params, version)
	v, _, err := s.flight.Do(key, func() (any, error) {
		// Cache hits are answered before admission: they do no compute,
		// so a saturated pool must not 429 them.
		if s.cache != nil {
			if res, ok := s.cache.Get(wl.ID(), params, version); ok {
				if res.WorkloadID == "" {
					res.WorkloadID = wl.ID()
				}
				return runOutcome{res, "hit"}, nil
			}
		}
		release, err := s.acquire(r.Context())
		if err != nil {
			return nil, err
		}
		defer release()
		ctx, cancel := s.computeCtx(r.Context())
		defer cancel()
		if s.cache == nil {
			res, err := runCached(ctx, nil, wl, params, s.stderr)
			return runOutcome{res, "bypass"}, err
		}
		res, err := runCached(ctx, s.cache, wl, params, s.stderr)
		return runOutcome{res, "miss"}, err
	})
	if err != nil {
		computeError(w, err, "run %s: %v", req.ID, err)
		return
	}
	out := v.(runOutcome)
	w.Header().Set("X-HPCC-Cache", out.status)
	writeJSONResponse(w, out.res)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs    []string `json:"ids"`
		ID     string   `json:"id"`
		Param  string   `json:"param"`
		Values []string `json:"values"`
		Quick  bool     `json:"quick"`
		Seed   int64    `json:"seed"`
	}
	if err := decodeStrict(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	base := harness.Params{Quick: req.Quick, Seed: req.Seed}
	var jobList []harness.Job
	switch {
	case req.Param != "":
		if req.ID == "" || len(req.Values) == 0 {
			httpError(w, http.StatusBadRequest, "a param sweep needs id, param and values")
			return
		}
		wl, err := s.registry().Lookup(req.ID)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		jobList = harness.ValueJobs(wl, base, req.Param, req.Values)
	case req.ID != "":
		httpError(w, http.StatusBadRequest, "id without param/values; use ids for a portfolio")
		return
	default:
		var ws []harness.Workload
		if len(req.IDs) == 0 {
			ws = s.registry().All()
		} else {
			for _, id := range req.IDs {
				wl, err := s.registry().Lookup(id)
				if err != nil {
					httpError(w, http.StatusNotFound, "%v", err)
					return
				}
				ws = append(ws, wl)
			}
		}
		jobList = harness.WorkloadJobs(ws, base)
	}
	results, cacheNote, err := s.execute(r.Context(), jobList)
	if err != nil {
		computeError(w, err, "sweep: %v", err)
		return
	}
	w.Header().Set("X-HPCC-Cache", cacheNote)
	writeJSONResponse(w, results)
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	quick := r.URL.Query().Get("quick") != ""
	// Reports are heavy and parameterless beyond quick: coalesce them.
	v, _, err := s.flight.Do("report\x00"+strconv.FormatBool(quick), func() (any, error) {
		release, err := s.acquire(r.Context())
		if err != nil {
			return nil, err
		}
		defer release()
		ctx, cancel := s.computeCtx(r.Context())
		defer cancel()
		prog := core.NewProgram()
		prog.Quick = quick
		ex, err := s.newExec()
		if err != nil {
			return nil, err
		}
		results, err := prog.ReportResultsExec(ctx, wrapExecutor(ex, s.cache), nil)
		return results, err
	})
	if err != nil {
		computeError(w, err, "report: %v", err)
		return
	}
	writeJSONResponse(w, v)
}

func (s *server) handleTrend(w http.ResponseWriter, r *http.Request) {
	if s.storeDir == "" {
		httpError(w, http.StatusServiceUnavailable, "trend needs a run store: restart serve with -store")
		return
	}
	workload := r.URL.Query().Get("workload")
	if workload == "" {
		httpError(w, http.StatusBadRequest, "missing ?workload=")
		return
	}
	st, err := store.Open(s.storeDir)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st.SetWarnWriter(s.stderr)
	if err := st.Check(); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrNoStore) {
			code = http.StatusNotFound
		}
		httpError(w, code, "%v", err)
		return
	}
	snaps, err := st.Snapshots()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(snaps) == 0 {
		httpError(w, http.StatusNotFound, "%v", store.NoSnapshotsError(s.storeDir))
		return
	}
	points, err := store.Trend(snaps, workload, r.URL.Query().Get("metric"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSONResponse(w, points)
}

// execute runs one request's job list on a fresh executor, cache-fronted
// when serve has a cache, and reports the hit/miss tally for the
// response header. It passes through admission and the per-request
// budget first: sweeps are the heaviest endpoint.
func (s *server) execute(ctx context.Context, jobList []harness.Job) ([]harness.Result, string, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, "", err
	}
	defer release()
	ctx, cancel := s.computeCtx(ctx)
	defer cancel()
	ex, err := s.newExec()
	if err != nil {
		return nil, "", err
	}
	if s.cache == nil {
		results, err := ex.Execute(ctx, jobList, nil)
		return results, "bypass", err
	}
	ce := &harness.CachingExecutor{Inner: ex, Cache: s.cache}
	results, err := ce.Execute(ctx, jobList, nil)
	return results, fmt.Sprintf("hits=%d misses=%d", ce.Hits, ce.Misses), err
}
