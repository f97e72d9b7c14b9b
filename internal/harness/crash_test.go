package harness

// Crash-safety tests: panic containment in the executors and on the
// wire, the drain grace primitive, the checkpointing
// JournalingExecutor, and the kill-then-resume differential that CI
// races — a sweep killed mid-flight and resumed from its checkpoint
// must produce bytes identical to one that never died.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// panicSpec panics on one chosen n so the blast radius is exact.
func panicReg(t *testing.T, boomN int, calls *atomic.Int32) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(spec("r/job", func(_ context.Context, p Params) (Result, error) {
		calls.Add(1)
		n, err := p.Int("n", 0)
		if err != nil {
			return Result{}, err
		}
		if n == boomN {
			panic(fmt.Sprintf("synthetic panic at n=%d", n))
		}
		return Result{WorkloadID: "r/job", Text: fmt.Sprintf("r/job n=%d\n", n)}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestSafeRunTurnsPanicIntoTypedError(t *testing.T) {
	w := spec("boom", func(context.Context, Params) (Result, error) {
		panic("kaboom")
	})
	_, err := safeRun(context.Background(), w, Params{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("Value = %q", pe.Value)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("Stack looks wrong:\n%s", pe.Stack)
	}
}

// TestLocalExecutorPanicContained: one job panicking must not take the
// sweep down. Every other job runs to completion, the error is a typed
// JobError with Panic set and the stack attached, emit skips only the
// dead slot, and the returned results are the trustworthy prefix.
func TestLocalExecutorPanicContained(t *testing.T) {
	var calls atomic.Int32
	reg := panicReg(t, 2, &calls)
	jobs := counterJobs(t, reg, 8)
	var mu sync.Mutex
	var seen []int
	emit := func(i int, _ Result) {
		mu.Lock()
		seen = append(seen, i)
		mu.Unlock()
	}
	results, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, emit)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !je.Panic || je.Index != 2 {
		t.Fatalf("JobError = %+v, want Panic at index 2", je)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not carry the panic: %v", err)
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("panic cancelled the sweep: only %d of 8 jobs ran", got)
	}
	if len(results) != 2 {
		t.Fatalf("completed prefix = %d results, want 2 (up to the panic)", len(results))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 7 {
		t.Fatalf("emitted %d of 7 surviving slots: %v", len(seen), seen)
	}
	for _, i := range seen {
		if i == 2 {
			t.Fatalf("panicked slot 2 was emitted: %v", seen)
		}
	}
}

// TestWireResultCarriesPanicFlag pins the shard/remote wire contract:
// a panic inside a worker's job becomes an error result with the Panic
// bit, never a dead worker process.
func TestWireResultCarriesPanicFlag(t *testing.T) {
	var calls atomic.Int32
	reg := panicReg(t, 1, &calls)
	wr := runWireJob(context.Background(), reg, WireJob{Index: 0, WorkloadID: "r/job", Params: Params{}.WithValue("n", "1")})
	if wr.Error == "" || !wr.Panic {
		t.Fatalf("WireResult = %+v, want Error with Panic=true", wr)
	}
	if !strings.Contains(wr.Error, "synthetic panic") {
		t.Fatalf("panic message lost on the wire: %q", wr.Error)
	}
	wr = runWireJob(context.Background(), reg, WireJob{Index: 1, WorkloadID: "r/job", Params: Params{}.WithValue("n", "0")})
	if wr.Error != "" || wr.Panic {
		t.Fatalf("healthy job has Panic metadata: %+v", wr)
	}
}

// TestRemotePanicContained runs the same containment bar over the TCP
// fleet: the worker whose job panics reports it as a typed failure and
// keeps serving; every other job still lands.
func TestRemotePanicContained(t *testing.T) {
	var calls atomic.Int32
	execReg := panicReg(t, 3, new(atomic.Int32))
	addr, _ := startRemoteWorker(t, panicReg(t, 3, &calls))
	ex, _ := remoteExec(execReg, addr)
	jobs := counterJobs(t, execReg, 8)
	results, err := ex.Execute(context.Background(), jobs, nil)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !je.Panic || je.Index != 3 {
		t.Fatalf("JobError = %+v, want Panic at index 3", je)
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("worker ran %d of 8 jobs after the panic", got)
	}
	if len(results) != 3 {
		t.Fatalf("completed prefix = %d results, want 3", len(results))
	}
}

func TestWithDrainGraceOutlivesParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := WithDrain(parent, time.Minute)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
		t.Fatal("drained context died with its parent; the grace never applied")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWithDrainGraceExpires(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := WithDrain(parent, 10*time.Millisecond)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("grace period never expired after parent cancellation")
	}
}

func TestWithDrainZeroGraceCancelsWithParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := WithDrain(parent, 0)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("zero grace must degenerate to plain cancellation")
	}
}

// TestLocalExecutorDrainStopsDispatchLetsInFlightFinish: firing the
// drain channel mid-sweep must stop new dispatch (ErrDrained), while
// the job already running completes and its result survives.
func TestLocalExecutorDrainStopsDispatchLetsInFlightFinish(t *testing.T) {
	drain := make(chan struct{})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var jobs []Job
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, Job{Workload: spec(fmt.Sprintf("w%d", i),
			func(context.Context, Params) (Result, error) {
				if i == 0 {
					started <- struct{}{}
					<-gate
				}
				return Result{Text: fmt.Sprintf("ok %d\n", i)}, nil
			})})
	}
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = LocalExecutor{Workers: 1, Drain: drain}.Execute(context.Background(), jobs, nil)
	}()
	<-started    // job 0 is in flight
	close(drain) // the "signal": stop dispatching
	close(gate)  // let the in-flight job finish
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drained sweep never returned")
	}
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if len(results) == 0 || len(results) == len(jobs) {
		t.Fatalf("drained sweep returned %d of %d results; want the partial in-flight prefix", len(results), len(jobs))
	}
	if results[0].Text != "ok 0\n" {
		t.Fatalf("in-flight job's result lost: %+v", results[0])
	}
}

// notifyWriter closes ch on its first write.
type notifyWriter struct {
	once sync.Once
	ch   chan struct{}
}

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.ch) })
	return len(p), nil
}

// TestRemoteExecutorDrainStopsDispatchLetsInFlightFinish mirrors the
// local test over the wire: once the drain channel closes no job is
// sent, the one in flight still lands, and Execute returns ErrDrained
// at once instead of riding out the minute-long backoff of a worker
// that is down.
func TestRemoteExecutorDrainStopsDispatchLetsInFlightFinish(t *testing.T) {
	drain := make(chan struct{})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	reg := NewRegistry()
	var jobs []Job
	for i := 0; i < 8; i++ {
		i := i
		w := spec(fmt.Sprintf("w%d", i), func(context.Context, Params) (Result, error) {
			if i == 0 {
				started <- struct{}{}
				<-gate
			}
			return Result{Text: fmt.Sprintf("ok %d\n", i)}, nil
		})
		if err := reg.Register(w); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Workload: w})
	}
	addr, _ := startRemoteWorker(t, reg)
	// The second worker fails its dial only once job 0 is in flight, so
	// job 0 is the first job sent and the down worker then sits in its
	// redial backoff.
	inFlight := make(chan struct{})
	evicted := &notifyWriter{ch: make(chan struct{})}
	var d net.Dialer
	ex := &RemoteExecutor{
		Addrs:            []string{addr, "down"},
		Registry:         reg,
		Window:           1,
		RedialBackoff:    time.Minute,
		RedialMaxBackoff: time.Minute,
		Drain:            drain,
		Stderr:           evicted,
		Dial: func(ctx context.Context, a string) (net.Conn, error) {
			if a != "down" {
				return d.DialContext(ctx, "tcp", a)
			}
			select {
			case <-inFlight:
			case <-ctx.Done():
			}
			return nil, errors.New("connection refused")
		},
	}
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = ex.Execute(context.Background(), jobs, nil)
	}()
	<-started // job 0 is in flight
	close(inFlight)
	<-evicted.ch // the down worker is waiting out its backoff
	close(drain) // the "signal": stop dispatching
	close(gate)  // let the in-flight job finish
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drained sweep never returned")
	}
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if len(results) == 0 || len(results) == len(jobs) {
		t.Fatalf("drained sweep returned %d of %d results; want the partial in-flight prefix", len(results), len(jobs))
	}
	if results[0].Text != "ok 0\n" {
		t.Fatalf("in-flight job's result lost: %+v", results[0])
	}
}

// memJournal is an in-memory JournalSink (the real file-backed one
// lives in repro/internal/journal, which imports this package).
type memJournal struct {
	mu      sync.Mutex
	records []int
	done    map[int]Result
}

func (m *memJournal) Record(index int, res Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, index)
	if m.done == nil {
		m.done = map[int]Result{}
	}
	m.done[index] = res
	return nil
}

// TestJournalingExecutorRecordsInOrderAndReplays: a full run records
// every index ascending; a resumed run replays Done entries without
// re-executing them and still produces byte-identical results.
func TestJournalingExecutorRecordsInOrderAndReplays(t *testing.T) {
	var calls atomic.Int32
	reg := counterReg(t, &calls, 0)
	jobs := counterJobs(t, reg, 10)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	sink := &memJournal{}
	jx := &JournalingExecutor{Inner: LocalExecutor{Workers: 4}, Sink: sink}
	got, err := jx.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "journaled", got, want)
	if len(sink.records) != len(jobs) {
		t.Fatalf("recorded %d of %d results", len(sink.records), len(jobs))
	}
	for i, idx := range sink.records {
		if idx != i {
			t.Fatalf("journal records out of order: %v", sink.records)
		}
	}

	// Resume with the first half already done: those jobs must not run
	// again, and the output must not change.
	calls.Store(0)
	done := map[int]Result{}
	for i := 0; i < 5; i++ {
		done[i] = sink.done[i]
	}
	emit, seen := orderedEmit(t)
	rx := &JournalingExecutor{Inner: LocalExecutor{Workers: 4}, Sink: &memJournal{}, Done: done}
	got, err = rx.Execute(context.Background(), jobs, emit)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "resumed", got, want)
	if calls.Load() != 5 {
		t.Fatalf("resume re-ran %d jobs, want 5 (the remainder)", calls.Load())
	}
	if idxs := seen(); len(idxs) != len(jobs) {
		t.Fatalf("resume emitted %d of %d indexes: %v", len(idxs), len(jobs), idxs)
	}
}

// TestJournalingExecutorSinkErrorsDoNotFailTheSweep: checkpointing is
// belt-and-braces; a dying disk must cost the checkpoint, not the run.
func TestJournalingExecutorSinkErrorsDoNotFailTheSweep(t *testing.T) {
	reg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, reg, 4)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	jx := &JournalingExecutor{Inner: LocalExecutor{Workers: 2}, Sink: failingSink{}}
	got, err := jx.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sink failure killed the sweep: %v", err)
	}
	assertSameResults(t, "failing sink", got, want)
	if jx.RecordErrors != len(jobs) {
		t.Fatalf("RecordErrors = %d, want %d", jx.RecordErrors, len(jobs))
	}
}

type failingSink struct{}

func (failingSink) Record(int, Result) error { return errors.New("disk on fire") }

// TestChaosKillThenResumeByteIdentical is the crash-safety
// differential CI races: a remote sweep whose only worker dies
// mid-flight (redial disabled, so the death is final) checkpoints its
// completed prefix; resuming from that checkpoint on a healthy
// executor must finish the sweep with bytes identical to a run that
// never crashed, without re-executing the checkpointed jobs.
func TestChaosKillThenResumeByteIdentical(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 10)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed run: a single worker that completes a couple of jobs
	// and then drops the connection for good.
	served := 0
	crasher := fakeWorker(t, counterReg(t, new(atomic.Int32), 0), func(conn net.Conn, fr *frameReader) {
		for {
			frame, err := fr.next()
			if err != nil {
				return
			}
			job, err := DecodeWireJob(frame)
			if err != nil {
				return
			}
			if served >= 3 {
				return // crash: connection drops with jobs outstanding
			}
			served++
			if err := EncodeWire(conn, runWireJob(context.Background(), execReg, job)); err != nil {
				return
			}
		}
	})
	sink := &memJournal{}
	base, _ := remoteExec(execReg, crasher)
	base.RedialAttempts = -1
	jx := &JournalingExecutor{Inner: base, Sink: sink}
	partial, err := jx.Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("sweep survived its only worker dying with redial disabled")
	}
	if len(partial) == 0 || len(partial) >= len(jobs) {
		t.Fatalf("crashed run returned %d of %d results; want a proper prefix", len(partial), len(jobs))
	}
	for i := range partial {
		if _, ok := sink.done[i]; !ok {
			t.Fatalf("returned result %d never hit the journal", i)
		}
	}

	// The resume: healthy local executor, checkpoint replayed.
	var resumedCalls atomic.Int32
	resumeReg := counterReg(t, &resumedCalls, 0)
	resumeJobs := counterJobs(t, resumeReg, 10)
	rx := &JournalingExecutor{Inner: LocalExecutor{Workers: 2}, Sink: &memJournal{}, Done: sink.done}
	got, err := rx.Execute(context.Background(), resumeJobs, nil)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertSameResults(t, "kill-then-resume", got, want)
	if int(resumedCalls.Load()) != len(jobs)-len(sink.done) {
		t.Fatalf("resume ran %d jobs, want %d (the un-checkpointed remainder)",
			resumedCalls.Load(), len(jobs)-len(sink.done))
	}
}
