package harness

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosByteIdentityUnderInjectedFaults is the fault-injection gate:
// a two-worker fleet where every frame to and from worker 0 runs
// through a seeded ChaosPlan, while worker 1 stays pristine. Whatever
// the transport does — dropped, truncated, duplicated, reordered,
// delayed frames, or a connection that just ends mid-sweep — the
// assembled output must stay byte-identical to LocalExecutor, every
// index emitted exactly once, because stranded jobs re-dispatch and
// corrupted streams evict the worker instead of corrupting a slot.
func TestChaosByteIdentityUnderInjectedFaults(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 12)
	want, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name string
		plan ChaosPlan
	}{
		{"drop-every-frame", ChaosPlan{Seed: 1, DropFrame: 1}},
		{"drop-sometimes", ChaosPlan{Seed: 2, DropFrame: 0.3}},
		{"truncate-every-frame", ChaosPlan{Seed: 3, TruncateFrame: 1}},
		{"truncate-sometimes", ChaosPlan{Seed: 4, TruncateFrame: 0.3}},
		{"duplicate-frames", ChaosPlan{Seed: 5, DuplicateFrame: 0.5}},
		{"reorder-and-delay", ChaosPlan{Seed: 6, ReorderFrame: 0.5, Delay: 2 * time.Millisecond}},
		{"close-mid-sweep", ChaosPlan{Seed: 7, CloseAfterFrames: 3}},
		{"kitchen-sink", ChaosPlan{Seed: 8, DropFrame: 0.1, TruncateFrame: 0.1, DuplicateFrame: 0.1, ReorderFrame: 0.2, Delay: time.Millisecond}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
			pristine, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
			base, stderr := remoteExec(execReg, faulty, pristine)
			base.HeartbeatTimeout = 1 * time.Second
			ex := NewChaosExecutor(base, sc.plan, faulty)
			emit, seen := orderedEmit(t)
			got, err := ex.Execute(context.Background(), jobs, emit)
			if err != nil {
				t.Fatalf("sweep failed under %s: %v\nstderr:\n%s", sc.name, err, stderr.String())
			}
			assertSameResults(t, sc.name, got, want)
			if idxs := seen(); len(idxs) != len(jobs) {
				t.Fatalf("%s: emitted %d of %d indexes: %v", sc.name, len(idxs), len(jobs), idxs)
			}
		})
	}
}

// TestChaosIsDeterministic replays one plan twice against fresh workers
// and demands the same eviction story: seeded chaos is only useful if a
// failing scenario can be replayed exactly.
func TestChaosIsDeterministic(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	plan := ChaosPlan{Seed: 99, DropFrame: 0.4}
	var evictions [2]int
	for round := range evictions {
		faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
		// The pristine worker holds its jobs until a faulty connection
		// has closed, so the sweep cannot finish before the seeded fault
		// fires.
		faultyClosed, onClose := gateOnce()
		pristine, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, faultyClosed, nil))
		base, stderr := remoteExec(execReg, faulty, pristine)
		base.Dial = closeHookDial(faulty, onClose)
		ex := NewChaosExecutor(base, plan, faulty)
		if _, err := ex.Execute(context.Background(), jobs, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		evictions[round] = strings.Count(stderr.String(), "evicted")
	}
	if evictions[0] != evictions[1] {
		t.Fatalf("same seed, different fault story: %d vs %d evictions", evictions[0], evictions[1])
	}
}

// closeHookDial dials TCP; connections to addr call onClose when they
// close.
func closeHookDial(addr string, onClose func()) DialFunc {
	return func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", a)
		if err != nil || a != addr {
			return conn, err
		}
		return closeHookConn{conn, onClose}, nil
	}
}

// closeHookConn calls onClose when the connection is closed.
type closeHookConn struct {
	net.Conn
	onClose func()
}

func (c closeHookConn) Close() error {
	err := c.Conn.Close()
	c.onClose()
	return err
}

// TestChaosTruncationSurfacesAsTruncatedFrame pins the decoder
// behavior the chaos layer relies on: a stream cut mid-frame must fail
// with ErrTruncatedFrame (and evict), never parse as a short message.
func TestChaosTruncationSurfacesAsTruncatedFrame(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 4)
	faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
	// The pristine worker holds its jobs until the faulty connection has
	// closed, so the sweep cannot finish before the tear happens.
	faultyClosed, onClose := gateOnce()
	pristine, _ := startRemoteWorker(t, gatedCounterReg(t, new(atomic.Int32), 0, faultyClosed, nil))
	base, stderr := remoteExec(execReg, faulty, pristine)
	base.Dial = closeHookDial(faulty, onClose)
	// Truncate only inbound frames so the tear happens on the executor's
	// own read path (outbound truncation is seen by the worker instead).
	ex := NewChaosExecutor(base, ChaosPlan{Seed: 11, TruncateFrame: 1}, faulty)
	if _, err := ex.Execute(context.Background(), jobs, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "truncated wire frame") &&
		!strings.Contains(stderr.String(), "read hello") {
		t.Fatalf("truncation never surfaced in eviction notes:\n%s", stderr.String())
	}
}
