package main

// Tracing for the traced run: timing decorators at every exported seam
// the hpcc commands compose (each executor's Inner, CachingExecutor.Cache,
// JournalingExecutor.Sink, RemoteExecutor.Dial, and the Workload
// interface), recording spans in memory. Nothing inside the program is
// changed; every span is recorded from this package, around the calls
// into a layer.
//
// Parents. The executor layers nest as calls (Journaling → Caching →
// Remote/Local), and every emit callback runs nested inside the inner
// Execute call, serialized by the harness's in-order assembler. So the
// spans on that path form one call stack, kept here as a stack of open
// spans. Workload runs are the exception: they run concurrently on pool
// or worker-server goroutines, so their parent is the innermost executor
// span instead (the only span that encloses every run of a request).

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Job is the index of the job the span served (the id
// spans of one job share), or -1 for spans that cover a whole request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keptSpansMax bounds the spans kept for the JSON artifact, so a
// workload with tens of thousands of sub-millisecond requests stays
// within a small memory budget. Aggregates always cover every span.
const keptSpansMax = 200_000

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // the current request's spans
	stack []int  // open spans on the serialized call path
	leaf  int    // innermost executor span: the parent of workload runs
	jobs  map[string]int

	kept      []span
	dropped   int
	misnested int // spans closed out of stack order

	// Aggregates over every traced request.
	requests int
	self     map[string]float64   // layer name → summed self seconds
	durs     map[string][]float64 // span name → durations in seconds
	hits     int

	dials, frames, bytesOut, bytesIn atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		leaf:  -1,
		self:  map[string]float64{},
		durs:  map[string][]float64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func jobKey(id string, p harness.Params) string { return id + "\x00" + p.Canonical() }

// setJobs records the request's job list, so seams that see only a
// workload ID and params (the cache, worker-side runs) can name the job.
func (t *tracer) setJobs(jobs []harness.Job) {
	m := make(map[string]int, len(jobs))
	for i, j := range jobs {
		m[jobKey(j.Workload.ID(), j.Params)] = i
	}
	t.mu.Lock()
	t.jobs = m
	t.mu.Unlock()
}

func (t *tracer) jobOf(id string, p harness.Params) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.jobs[jobKey(id, p)]; ok {
		return i
	}
	return -1
}

// begin opens a span on the call stack, as a child of the stack's top.
func (t *tracer) begin(name string, job int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin opened; spans close in stack order.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	} else {
		t.misnested++
	}
}

// beginRun opens a workload-run span off the call stack, as a child of
// the innermost executor span.
func (t *tracer) beginRun(job int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.leaf, Name: "workload.run", Job: job, Start: t.now()})
	return id
}

func (t *tracer) endRun(id int) {
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.mu.Unlock()
}

func (t *tracer) setLeaf(id int) {
	t.mu.Lock()
	t.leaf = id
	t.mu.Unlock()
}

func (t *tracer) hit() {
	t.mu.Lock()
	t.hits++
	t.mu.Unlock()
}

// finishRequest folds the request's spans into the aggregates: self time
// per layer name (a span's duration minus the part of it its children
// cover) and durations per span name. It returns the spans' problems:
// a parent that does not exist or does not enclose its child.
func (t *tracer) finishRequest() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	t.stack = t.stack[:0]
	t.leaf = -1
	t.requests++

	problems := checkSpans(spans)
	if t.misnested > 0 {
		problems = append(problems, "spans closed out of stack order")
		t.misnested = 0
	}
	for name, s := range selfTimes(spans) {
		t.self[name] += s
	}
	for _, s := range spans {
		t.durs[s.Name] = append(t.durs[s.Name], float64(s.End-s.Start)/1e9)
	}
	room := keptSpansMax - len(t.kept)
	if room >= len(spans) {
		base := len(t.kept)
		for _, s := range spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.kept = append(t.kept, s)
		}
	} else {
		t.dropped += len(spans)
	}
	return problems
}

// checkSpans reports every span left open, every span but a request
// root without a parent, and every span whose parent does not exist or
// does not enclose it.
func checkSpans(spans []span) []string {
	var bad []string
	for _, s := range spans {
		if s.End < s.Start {
			bad = append(bad, s.Name+": span never closed")
			continue
		}
		if s.Parent < 0 {
			if s.Name != "request" {
				bad = append(bad, s.Name+": no parent")
			}
			continue
		}
		if s.Parent >= len(spans) || s.Parent == s.ID {
			bad = append(bad, s.Name+": parent does not exist")
			continue
		}
		p := spans[s.Parent]
		if p.Start > s.Start || p.End < s.End {
			bad = append(bad, s.Name+": parent "+p.Name+" does not enclose it")
		}
	}
	return bad
}

// selfTimes sums, per span name, each span's duration minus the union of
// its children's intervals.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// tracedExecutor times one executor layer. The emit callback it hands
// the inner executor runs the caller's code, so that time is recorded as
// a span of the caller's layer.
type tracedExecutor struct {
	tr     *tracer
	name   string // this layer
	caller string // the layer that passed emit
	leaf   bool   // the innermost executor, under which workloads run
	inner  harness.Executor
}

func (e *tracedExecutor) Execute(ctx context.Context, jobs []harness.Job, emit func(int, harness.Result)) ([]harness.Result, error) {
	id := e.tr.begin(e.name, -1)
	defer e.tr.end(id)
	if e.leaf {
		e.tr.setLeaf(id)
		// A local pool runs these wrappers; a remote executor sends
		// only IDs, and its worker's traced registry does the timing.
		wrapped := make([]harness.Job, len(jobs))
		for i, j := range jobs {
			wrapped[i] = harness.Job{Workload: tracedWorkload{inner: j.Workload, tr: e.tr}, Params: j.Params}
		}
		jobs = wrapped
	}
	var up func(int, harness.Result)
	if emit != nil {
		up = func(i int, r harness.Result) {
			u := e.tr.begin(e.caller, i)
			emit(i, r)
			e.tr.end(u)
		}
	}
	return e.inner.Execute(ctx, jobs, up)
}

// tracedWorkload times Workload.Run, forwarding ID and version so cache
// keys and registry fingerprints are those of the wrapped workload.
type tracedWorkload struct {
	inner harness.Workload
	tr    *tracer
}

func (w tracedWorkload) ID() string                  { return w.inner.ID() }
func (w tracedWorkload) Description() string         { return w.inner.Description() }
func (w tracedWorkload) ParamSpace() []harness.Param { return w.inner.ParamSpace() }
func (w tracedWorkload) WorkloadVersion() string     { return harness.VersionOf(w.inner) }

func (w tracedWorkload) Run(ctx context.Context, p harness.Params) (harness.Result, error) {
	id := w.tr.beginRun(w.tr.jobOf(w.inner.ID(), p))
	defer w.tr.endRun(id)
	return w.inner.Run(ctx, p)
}

// tracedRegistry returns a registry serving every workload of reg
// through tracedWorkload. IDs and versions are forwarded, so its
// fingerprint equals reg's and the remote handshake accepts it.
func tracedRegistry(reg *harness.Registry, tr *tracer) (*harness.Registry, error) {
	out := harness.NewRegistry()
	for _, w := range reg.All() {
		if err := out.Register(tracedWorkload{inner: w, tr: tr}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedCache times the ResultCache seam.
type tracedCache struct {
	inner harness.ResultCache
	tr    *tracer
}

func (c tracedCache) Get(id string, p harness.Params, version string) (harness.Result, bool) {
	s := c.tr.begin("cache.get", c.tr.jobOf(id, p))
	res, ok := c.inner.Get(id, p, version)
	c.tr.end(s)
	if ok {
		c.tr.hit()
	}
	return res, ok
}

func (c tracedCache) Put(id string, p harness.Params, version string, res harness.Result) error {
	s := c.tr.begin("cache.put", c.tr.jobOf(id, p))
	defer c.tr.end(s)
	return c.inner.Put(id, p, version, res)
}

// tracedSink times the JournalSink seam.
type tracedSink struct {
	inner harness.JournalSink
	tr    *tracer
}

func (s tracedSink) Record(index int, res harness.Result) error {
	id := s.tr.begin("journal.record", index)
	defer s.tr.end(id)
	return s.inner.Record(index, res)
}

// dial is RemoteExecutor.Dial for the traced run: plain TCP, counted.
func (t *tracer) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	return countingConn{Conn: c, tr: t}, nil
}

// countingConn counts the bytes and newline-terminated frames of the
// JSONL wire in each direction.
type countingConn struct {
	net.Conn
	tr *tracer
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tr.bytesIn.Add(int64(n))
	c.tr.frames.Add(countNewlines(b[:n]))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tr.bytesOut.Add(int64(n))
	c.tr.frames.Add(countNewlines(b[:n]))
	return n, err
}

func countNewlines(b []byte) int64 {
	n := int64(0)
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
