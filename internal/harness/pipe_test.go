package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// shardWorkerEnv selects a worker personality when this test binary is
// spawned by SpawnDial under test (see TestMain):
//
//	serve      — a faithful worker: ServeConn on stdin/stdout over
//	             shardTestRegistry, exactly as `hpcc worker` serves
//	crash      — handshakes, reads one job frame, then dies without
//	             answering
//	crash-once — crash for the first child to claim the file named by
//	             shardMarkerEnv, serve for every child after it
//	torn       — handshakes, reads one job, writes half a result frame,
//	             then dies
//	silent     — handshakes, then reads jobs forever without answering
//	             or sending heartbeats
const shardWorkerEnv = "HARNESS_TEST_WORKER"

// shardMarkerEnv names the file the crash-once personality claims.
const shardMarkerEnv = "HARNESS_TEST_MARKER"

// shardTestRegistry is the workload set both sides of the spawned-child
// tests share: the parent builds jobs from it and handshakes with it,
// and the child serves it.
func shardTestRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 24; i++ {
		if err := reg.Register(echo(fmt.Sprintf("shard/echo%02d", i))); err != nil {
			panic(err)
		}
	}
	must := func(s Spec) {
		if err := reg.Register(s); err != nil {
			panic(err)
		}
	}
	must(spec("shard/fail", func(context.Context, Params) (Result, error) {
		return Result{}, errors.New("deliberate failure")
	}))
	must(spec("shard/slow", func(ctx context.Context, _ Params) (Result, error) {
		// Long enough that a cancellation test must kill the worker; a
		// plain sleep, because the child's own context is never
		// cancelled — only the parent's teardown ends it.
		time.Sleep(30 * time.Second)
		return Result{Text: "slept\n"}, nil
	}))
	must(spec("shard/anon", func(context.Context, Params) (Result, error) {
		return Result{Text: "ok\n"}, nil // no WorkloadID set by the workload
	}))
	return reg
}

func TestMain(m *testing.M) {
	mode := os.Getenv(shardWorkerEnv)
	if mode == "crash-once" {
		mode = "serve"
		if f, err := os.OpenFile(os.Getenv(shardMarkerEnv), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
			f.Close()
			mode = "crash"
		}
	}
	switch mode {
	case "serve":
		srv := &RemoteWorkerServer{Registry: shardTestRegistry()}
		if err := srv.ServeConn(context.Background(), StdioConn(os.Stdin, os.Stdout)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "crash":
		fr := childHandshake()
		fr.next()
		os.Exit(3)
	case "torn":
		fr := childHandshake()
		fr.next()
		os.Stdout.WriteString(`{"index":0,"result":{"workload`)
		os.Exit(3)
	case "silent":
		fr := childHandshake()
		for {
			if _, err := fr.next(); err != nil {
				os.Exit(0)
			}
		}
	}
	os.Exit(m.Run())
}

// childHandshake answers the parent's hello on stdin/stdout the way a
// real worker does, for the personalities that misbehave afterwards.
func childHandshake() *frameReader {
	fr := newFrameReader(os.Stdin)
	if _, err := fr.next(); err != nil {
		os.Exit(2)
	}
	if err := EncodeWire(os.Stdout, HelloFor(shardTestRegistry(), RoleWorker)); err != nil {
		os.Exit(2)
	}
	return fr
}

// testSpawnExecutor runs children copies of this test binary, in the
// given personality, as a RemoteExecutor's workers — the -shards wiring
// with the test binary standing in for `hpcc worker`. The returned
// buffer collects eviction notes.
func testSpawnExecutor(children int, mode string, env ...string) (*RemoteExecutor, *bytes.Buffer) {
	addrs := make([]string, children)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("child-%d", i)
	}
	var stderr bytes.Buffer
	return &RemoteExecutor{
		Addrs:    addrs,
		Registry: shardTestRegistry(),
		Dial:     SpawnDial([]string{os.Args[0]}, append([]string{shardWorkerEnv + "=" + mode}, env...)),
		Stderr:   &stderr,
	}, &stderr
}

// shardEchoJobs builds n jobs over the shard test registry's echo
// workloads with distinct params.
func shardEchoJobs(t *testing.T, n int) []Job {
	t.Helper()
	reg := shardTestRegistry()
	jobs := make([]Job, n)
	for i := range jobs {
		w, err := reg.Lookup(fmt.Sprintf("shard/echo%02d", i%24))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{Workload: w, Params: Params{Seed: int64(i)}.WithValue("n", fmt.Sprint(i))}
	}
	return jobs
}

func TestShardMatchesLocalByteIdentical(t *testing.T) {
	jobs := shardEchoJobs(t, 20)
	local, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, children := range []int{1, 2, 4} {
		ex, _ := testSpawnExecutor(children, "serve")
		sharded, err := ex.Execute(context.Background(), jobs, nil)
		if err != nil {
			t.Fatalf("children=%d: %v", children, err)
		}
		assertSameResults(t, fmt.Sprintf("children=%d", children), sharded, local)
	}
}

func TestShardEmitStreamsInOrder(t *testing.T) {
	jobs := shardEchoJobs(t, 12)
	var mu sync.Mutex
	var seen []int
	emit := func(i int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if !strings.Contains(r.Text, fmt.Sprintf("n=%d ", i)) {
			t.Errorf("emit %d got wrong result %q", i, r.Text)
		}
		seen = append(seen, i)
	}
	ex, _ := testSpawnExecutor(3, "serve")
	if _, err := ex.Execute(context.Background(), jobs, emit); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("emitted %d of %d results", len(seen), len(jobs))
	}
	for i, got := range seen {
		if got != i {
			t.Fatalf("emit order %v not ascending", seen)
		}
	}
}

func TestShardWorkerErrorIsJobError(t *testing.T) {
	reg := shardTestRegistry()
	fail, err := reg.Lookup("shard/fail")
	if err != nil {
		t.Fatal(err)
	}
	jobs := shardEchoJobs(t, 4)
	jobs[2] = Job{Workload: fail}
	ex, _ := testSpawnExecutor(2, "serve")
	results, err := ex.Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("failing workload reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 2 || je.WorkloadID != "shard/fail" || !strings.Contains(je.Err.Error(), "deliberate failure") {
		t.Fatalf("wrong job error: %+v", je)
	}
	// Only the completed prefix comes back — never placeholders.
	if len(results) > 2 {
		t.Fatalf("results reach past the failed job: %d", len(results))
	}
	for i, r := range results {
		if r.WorkloadID == "" || r.Text == "" {
			t.Fatalf("result %d is a placeholder: %+v", i, r)
		}
	}
}

// TestShardWorkerCrashMapsToInFlightJob: a child that dies on every
// job is respawned until the in-flight job runs out of send attempts,
// and the failure lands on that job's index.
func TestShardWorkerCrashMapsToInFlightJob(t *testing.T) {
	jobs := shardEchoJobs(t, 3)
	ex, _ := testSpawnExecutor(1, "crash")
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = ex.Execute(context.Background(), jobs, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("crashing worker hung the sweep")
	}
	if err == nil {
		t.Fatal("worker crash reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 0 {
		t.Fatalf("crash mapped to job %d, want the in-flight job 0", je.Index)
	}
	if !strings.Contains(err.Error(), "re-dispatch budget exhausted after 3 attempts") {
		t.Fatalf("crash error does not say what happened: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("crash still produced results: %v", results)
	}
}

// TestShardCrashedChildIsRespawnedAndJobReruns: the only child dies
// mid-job; the redial loop spawns a replacement and the stranded job
// re-runs there, so the sweep still matches the local pool.
func TestShardCrashedChildIsRespawnedAndJobReruns(t *testing.T) {
	jobs := shardEchoJobs(t, 6)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	marker := t.TempDir() + "/crashed"
	ex, stderr := testSpawnExecutor(1, "crash-once", shardMarkerEnv+"="+marker)
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed after one crash: %v", err)
	}
	assertSameResults(t, "after respawn", got, want)
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("no child crashed: %v", err)
	}
	if !strings.Contains(stderr.String(), "child-0 reconnected") {
		t.Fatalf("respawn not reported: %q", stderr.String())
	}
}

func TestShardTornResultLineIsTruncationNotSilence(t *testing.T) {
	// A worker that dies mid-write leaves a torn final line. The frame
	// reader must name the truncation in the in-flight job's error
	// instead of dropping or parsing the fragment.
	jobs := shardEchoJobs(t, 2)
	ex, _ := testSpawnExecutor(1, "torn")
	_, err := ex.Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("torn result line reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 0 {
		t.Fatalf("tear mapped to job %d, want in-flight job 0", je.Index)
	}
	if !errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "truncated wire frame") {
		t.Fatalf("tear not named as truncation: %v", err)
	}
}

// TestShardHeartbeatEvictsSilentChild: read deadlines reach the child's
// stdout pipe, so a child that stops talking is evicted like a silent
// TCP worker.
func TestShardHeartbeatEvictsSilentChild(t *testing.T) {
	ex, stderr := testSpawnExecutor(1, "silent")
	ex.HeartbeatTimeout = 300 * time.Millisecond
	ex.RedialAttempts = -1
	_, err := ex.Execute(context.Background(), shardEchoJobs(t, 2), nil)
	if err == nil {
		t.Fatal("silent child reported no error")
	}
	if !strings.Contains(err.Error(), "no heartbeat within 300ms") || !strings.Contains(stderr.String(), "no heartbeat within") {
		t.Fatalf("silence not named as a missed heartbeat: %v (stderr %q)", err, stderr.String())
	}
}

func TestShardCancellationKillsStragglers(t *testing.T) {
	reg := shardTestRegistry()
	slow, err := reg.Lookup("shard/slow")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Workload: slow}, {Workload: slow}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Millisecond) // let the workers start the jobs
		cancel()
	}()
	start := time.Now()
	done := make(chan error, 1)
	ex, _ := testSpawnExecutor(2, "serve")
	go func() {
		_, err := ex.Execute(ctx, jobs, nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cancellation did not stop the sharded sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v; stragglers were not killed", elapsed)
	}
}

func TestShardSpawnRejectsMissingCommand(t *testing.T) {
	ex := &RemoteExecutor{Addrs: []string{"child-0"}, Registry: shardTestRegistry(), Dial: SpawnDial(nil, nil), RedialBackoff: time.Millisecond}
	_, err := ex.Execute(context.Background(), shardEchoJobs(t, 2), nil)
	if err == nil || !strings.Contains(err.Error(), "no worker command") {
		t.Fatalf("executor with no worker command: got %v", err)
	}
}

func TestShardSpawnFailureSurfaces(t *testing.T) {
	ex := &RemoteExecutor{
		Addrs:         []string{"child-0"},
		Registry:      shardTestRegistry(),
		Dial:          SpawnDial([]string{"/no/such/worker-binary"}, nil),
		RedialBackoff: time.Millisecond,
	}
	_, err := ex.Execute(context.Background(), shardEchoJobs(t, 2), nil)
	if err == nil {
		t.Fatal("unspawnable worker reported no error")
	}
	if !strings.Contains(err.Error(), "start worker /no/such/worker-binary") {
		t.Fatalf("spawn failure does not name the binary: %v", err)
	}
}

// dialTestChild spawns one serving child and completes the executor's
// side of the handshake, for tests that speak the wire by hand.
func dialTestChild(t *testing.T) (net.Conn, *frameReader) {
	t.Helper()
	ex, _ := testSpawnExecutor(1, "serve")
	conn, fr, err := ex.connect(context.Background(), "child-0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, fr
}

// nextAnswer reads the next non-heartbeat response frame.
func nextAnswer(t *testing.T, fr *frameReader) WireResponse {
	t.Helper()
	for {
		line, err := fr.next()
		if err != nil {
			t.Fatalf("read answer: %v", err)
		}
		resp, err := DecodeWireResponse(line)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Heartbeat {
			return resp
		}
	}
}

func TestServeConnStdioRunsJobs(t *testing.T) {
	conn, fr := dialTestChild(t)
	for _, j := range []WireJob{
		{Index: 0, WorkloadID: "shard/echo00", Params: Params{}.WithValue("n", "7")},
		{Index: 1, WorkloadID: "shard/fail"},
		{Index: 2, WorkloadID: "shard/missing"},
	} {
		if err := EncodeWire(conn, j); err != nil {
			t.Fatalf("job %d: %v", j.Index, err)
		}
	}
	// Answers arrive in completion order.
	got := map[int]WireResponse{}
	for len(got) < 3 {
		r := nextAnswer(t, fr)
		got[r.Index] = r
	}
	if r := got[0]; r.Result == nil || !strings.Contains(r.Result.Text, "n=7") {
		t.Fatalf("result 0 wrong: %+v", r)
	}
	if r := got[1]; !strings.Contains(r.Error, "deliberate failure") {
		t.Fatalf("result 1 wrong: %+v", r)
	}
	if r := got[2]; !strings.Contains(r.Error, "unknown workload") {
		t.Fatalf("result 2 wrong: %+v", r)
	}
}

func TestServeConnStdioDiesOnProtocolBreach(t *testing.T) {
	conn, fr := dialTestChild(t)
	if _, err := io.WriteString(conn, "this is not a wire job\n"); err != nil {
		t.Fatal(err)
	}
	for {
		line, err := fr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("want the child's stdout to end, got %v", err)
		}
		if resp, err := DecodeWireResponse(line); err != nil || !resp.Heartbeat {
			t.Fatalf("worker answered a malformed job: %q", line)
		}
	}
	if err := conn.Close(); err == nil || !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("child did not die of the breach: %v", err)
	}
}

func TestServeConnStdioStampsWorkloadID(t *testing.T) {
	conn, fr := dialTestChild(t)
	if err := EncodeWire(conn, WireJob{Index: 0, WorkloadID: "shard/anon"}); err != nil {
		t.Fatal(err)
	}
	if r := nextAnswer(t, fr); r.Result == nil || r.Result.WorkloadID != "shard/anon" {
		t.Fatalf("worker did not stamp the workload ID: %+v", r)
	}
}
