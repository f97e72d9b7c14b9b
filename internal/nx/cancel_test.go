package nx

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestCtxAlreadyCancelled: a done context stops the run before any
// process body executes.
func TestCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res, err := Run(Config{Model: machine.SubMesh(machine.Delta(), 2, 2), Ctx: ctx}, func(p *Proc) {
		ran = true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a result %+v from a cancelled run", res)
	}
	if ran {
		t.Fatal("body ran despite a pre-cancelled context")
	}
}

// TestCtxCancelUnblocksReceive: cancelling mid-run tears down a process
// parked in a receive that is never sent while its siblings keep the run
// live — ranks 1 and 2 ping-pong far longer than the test waits — and
// surfaces the context error, not a deadlock.
func TestCtxCancelUnblocksReceive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(Config{Model: machine.SubMesh(machine.Delta(), 2, 2), Ctx: ctx}, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(1, 5) // never sent: parked until teardown
		case 1, 2:
			peer := 3 - p.Rank()
			for i := 0; i < 1_000_000_000; i++ {
				if p.Rank() == 1 {
					p.SendPhantom(peer, 0, 8)
					p.Recv(peer, 0)
				} else {
					p.Recv(peer, 0)
					p.SendPhantom(peer, 0, 8)
				}
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt teardown", elapsed)
	}
}

// TestCtxCancelStopsCollectiveLoop: a long collective-heavy loop (the
// shape of every phantom workload) is abandoned mid-flight.
func TestCtxCancelStopsCollectiveLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	completed := make([]int, 16)
	_, err := Run(Config{Model: machine.SubMesh(machine.Delta(), 4, 4), Ctx: ctx}, func(p *Proc) {
		g := p.World()
		for i := 0; i < 1_000_000; i++ {
			g.ReducePhantom(0, 16)
			g.BcastPhantom(0, 16)
			completed[p.Rank()] = i
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for rank, n := range completed {
		if n >= 1_000_000-1 {
			t.Fatalf("rank %d ran the loop to completion despite cancellation", rank)
		}
	}
}

// TestNilCtxRunsToCompletion: the zero Config keeps the classic behavior.
func TestNilCtxRunsToCompletion(t *testing.T) {
	res, err := Run(Config{Model: machine.SubMesh(machine.Delta(), 2, 2)}, func(p *Proc) {
		p.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Makespan <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}
