package harness

// Tests for the evict → backoff → redial → readmit loop: a restarted
// worker rejoins the pool mid-sweep, output stays byte-identical to
// LocalExecutor, the backoff schedule is deterministic under an
// injected clock, and failures that cannot heal (auth) never redial.

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// instantSleep makes the redial loop spin without wall-clock cost.
func instantSleep(context.Context, time.Duration) error { return nil }

// swappableDial returns a Dial func that resolves the symbolic address
// to whatever target currently holds, so a test can "restart" a worker
// by pointing the same fleet slot at a fresh listener.
func swappableDial(symbolic string, target *atomic.Value) func(context.Context, string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if addr == symbolic {
			addr = target.Load().(string)
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// hangReg registers an r/job (same ID and version as counterReg's, so
// fingerprints agree) that signals started and then blocks until its
// connection dies — the worker every kill-mid-job test needs.
func hangReg(t *testing.T, started chan<- struct{}) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(spec("r/job", func(ctx context.Context, _ Params) (Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return Result{}, ctx.Err()
	}))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRemoteRedialReadmitsRevivedWorker(t *testing.T) {
	const n = 12
	started := make(chan struct{}, n)
	var revivedCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, n)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet slot "revivable" first resolves to a worker that hangs on its
	// first job and is then killed; the replacement on a fresh listener
	// runs jobs for real. The survivor is slow so the revived worker has
	// queued work left to steal when it rejoins.
	oldAddr, killOld := startRemoteWorker(t, hangReg(t, started))
	newAddr, _ := startRemoteWorker(t, counterReg(t, &revivedCalls, 0))
	survivor, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 30*time.Millisecond))

	var target atomic.Value
	target.Store(oldAddr)
	ex, stderr := remoteExec(execReg, "revivable", survivor)
	ex.Dial = swappableDial("revivable", &target)
	ex.Sleep = instantSleep

	type out struct {
		results []Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		res, err := ex.Execute(context.Background(), jobs, nil)
		done <- out{res, err}
	}()
	<-started // the doomed worker is now hanging mid-job
	target.Store(newAddr)
	killOld()

	var got out
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung across the kill-and-revive")
	}
	if got.err != nil {
		t.Fatalf("sweep failed across the kill-and-revive: %v", got.err)
	}
	assertSameResults(t, "kill-and-revive", got.results, want)
	if revivedCalls.Load() == 0 {
		t.Fatal("revived worker ran no jobs; it was never readmitted to the pool")
	}
	for _, note := range []string{"evicted", "redial pending", "readmitted"} {
		if !strings.Contains(stderr.String(), note) {
			t.Fatalf("redial lifecycle note %q missing from stderr: %q", note, stderr.String())
		}
	}
}

func TestRemoteRedialParksJobsWhileEveryWorkerIsDown(t *testing.T) {
	// Single-address fleet: between the kill and the readmission there are
	// zero live workers. The stranded jobs must park on the redialing
	// queue, not fail with "no live workers remain".
	const n = 6
	started := make(chan struct{}, n)
	var revivedCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, n)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	oldAddr, killOld := startRemoteWorker(t, hangReg(t, started))
	newAddr, _ := startRemoteWorker(t, counterReg(t, &revivedCalls, 0))
	var target atomic.Value
	target.Store(oldAddr)
	ex, _ := remoteExec(execReg, "solo")
	ex.Dial = swappableDial("solo", &target)
	ex.Sleep = instantSleep

	type out struct {
		results []Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		res, err := ex.Execute(context.Background(), jobs, nil)
		done <- out{res, err}
	}()
	<-started
	target.Store(newAddr)
	killOld()

	var got out
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung with every worker down")
	}
	if got.err != nil {
		t.Fatalf("jobs failed instead of parking for the readmission: %v", got.err)
	}
	assertSameResults(t, "parked", got.results, want)
	if revivedCalls.Load() != n {
		t.Fatalf("revived worker ran %d of %d jobs", revivedCalls.Load(), n)
	}
}

func TestRemoteRedialBackoffScheduleDeterministic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	execReg := counterReg(t, new(atomic.Int32), 0)
	const base, maxBackoff = 100 * time.Millisecond, 400 * time.Millisecond

	schedule := func() []time.Duration {
		var mu sync.Mutex
		var ds []time.Duration
		ex := &RemoteExecutor{
			Addrs:            []string{dead},
			Registry:         execReg,
			RedialBackoff:    base,
			RedialMaxBackoff: maxBackoff,
			Sleep: func(_ context.Context, d time.Duration) error {
				mu.Lock()
				ds = append(ds, d)
				mu.Unlock()
				return nil
			},
		}
		if _, err := ex.Execute(context.Background(), counterJobs(t, execReg, 2), nil); err == nil {
			t.Fatal("dead address reported no error")
		}
		mu.Lock()
		defer mu.Unlock()
		return ds
	}

	first := schedule()
	if len(first) != DefaultRedialAttempts {
		t.Fatalf("slept %d times, want one per redial attempt (%d): %v", len(first), DefaultRedialAttempts, first)
	}
	for k, d := range first {
		nominal := base << k
		if nominal > maxBackoff {
			nominal = maxBackoff
		}
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d slept %v, outside the jitter band [%v, %v]", k+1, d, nominal/2, nominal)
		}
	}
	second := schedule()
	if len(second) != len(first) {
		t.Fatalf("schedules differ in length: %v vs %v", first, second)
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("jitter is not deterministic: run 1 %v, run 2 %v", first, second)
		}
	}
}

func TestRemoteRedialDisabledKeepsEvictionFinal(t *testing.T) {
	var fastCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The survivor holds its jobs until the crasher has read one, so the
	// crasher always owns a job when it drops and is evicted for good.
	crasherRead, onRead := gateOnce()
	crasher := fakeWorker(t, execReg, func(conn net.Conn, fr *frameReader) {
		fr.next() // read one job, then drop the connection
		onRead()
	})
	survivor, _ := startRemoteWorker(t, gatedCounterReg(t, &fastCalls, 0, crasherRead, nil))

	var mu sync.Mutex
	dials := map[string]int{}
	ex, stderr := remoteExec(execReg, crasher, survivor)
	ex.RedialAttempts = -1
	ex.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	assertSameResults(t, "redial disabled", got, want)
	mu.Lock()
	crasherDials := dials[crasher]
	mu.Unlock()
	if crasherDials != 1 {
		t.Fatalf("crashed address dialed %d times with redial disabled, want 1", crasherDials)
	}
	if !strings.Contains(stderr.String(), "address abandoned") {
		t.Fatalf("final eviction not reported: %q", stderr.String())
	}
}

// startTokenWorker is startRemoteWorker with a fleet auth token set.
func startTokenWorker(t *testing.T, reg *Registry, token string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &RemoteWorkerServer{Registry: reg, Token: token, HeartbeatInterval: 50 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

func TestRemoteTokenMismatchIsTypedAndNeverRedialed(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	addr := startTokenWorker(t, execReg, "sesame")

	var dials atomic.Int32
	ex, _ := remoteExec(execReg, addr)
	ex.Token = "wrong"
	ex.Sleep = instantSleep
	ex.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	_, err := ex.Execute(context.Background(), counterJobs(t, execReg, 3), nil)
	if err == nil {
		t.Fatal("token mismatch accepted")
	}
	if !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("want ErrTokenMismatch in the chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "token") {
		t.Fatalf("mismatch error does not mention the token: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("auth refusal was redialed %d times; it cannot heal and must not retry", got-1)
	}
}

func TestRemoteTokenMatchRunsByteIdentical(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := startTokenWorker(t, counterReg(t, new(atomic.Int32), 0), "sesame")
	ex, _ := remoteExec(execReg, addr)
	ex.Token = "sesame"
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("matching tokens refused: %v", err)
	}
	assertSameResults(t, "token match", got, want)
}

func TestRemoteRedialHealsRefusedDials(t *testing.T) {
	// The worker is "not up yet": its first dials are refused at the
	// transport. The redial loop must ride out the refusals and land the
	// full sweep byte-identically.
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 8)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The healthy worker holds its jobs until the refused one has been
	// readmitted and run a job, so it cannot finish the sweep first.
	ran, onRun := gateOnce()
	addr0, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, nil, onRun))
	addr1, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, ran, nil))
	ex, stderr := remoteExec(execReg, addr0, addr1)
	ex.Sleep = instantSleep
	cx := NewChaosExecutor(ex, ChaosPlan{Seed: 7, RefuseDials: 2}, addr0)
	got, err := cx.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed across refused dials: %v", err)
	}
	assertSameResults(t, "refused dials", got, want)
	if !strings.Contains(stderr.String(), "readmitted") {
		t.Fatalf("refused worker never readmitted: %q", stderr.String())
	}
}

func TestRemoteRedialHealsDroppedHandshakes(t *testing.T) {
	// The worker accepts and dies before speaking — the half-up state
	// between refused and healthy. Same bar: redial through it.
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 8)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// As above: the healthy worker waits for the half-up one to run a job.
	ran, onRun := gateOnce()
	addr0, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, nil, onRun))
	addr1, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, ran, nil))
	ex, stderr := remoteExec(execReg, addr0, addr1)
	ex.Sleep = instantSleep
	cx := NewChaosExecutor(ex, ChaosPlan{Seed: 11, DropHandshakes: 2}, addr0)
	got, err := cx.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed across dropped handshakes: %v", err)
	}
	assertSameResults(t, "dropped handshakes", got, want)
	if !strings.Contains(stderr.String(), "readmitted") {
		t.Fatalf("half-up worker never readmitted: %q", stderr.String())
	}
}
