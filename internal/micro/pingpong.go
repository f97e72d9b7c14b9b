// Package micro holds communication microbenchmarks — tiny fixed-pattern
// programs whose only job is to expose the machine model's communication
// parameters and to canary the runtime paths real workloads depend on.
//
// The first (and canonical) one is Ping Pong, after the MPP course
// practical: two processes bounce a phantom message back and forth across
// a sweep of sizes, and the modelled round-trip times yield the machine's
// effective point-to-point latency (small messages) and bandwidth (large
// messages). Because virtual time in package nx is deterministic, the
// numbers double as a regression canary: the bounce exercises the raw
// mailbox send/receive path, and each size closes with a symmetric
// exchange plus a world broadcast, which exercises the fused-collective
// engine, so any change to either path shows up as a
// byte-level diff in this workload's output.
package micro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/nx"
)

// Message tags for the bounce; the exchange and broadcast use their own
// internal tag space.
const (
	tagPing nx.Tag = 1
	tagPong nx.Tag = 2
	tagExch nx.Tag = 3
)

// DefaultSizes returns the standard size sweep: powers of eight from 8
// bytes up to maxBytes (at least one size, even for tiny caps).
func DefaultSizes(maxBytes int) []int {
	var sizes []int
	for nb := 8; nb <= maxBytes; nb *= 8 {
		sizes = append(sizes, nb)
	}
	if len(sizes) == 0 {
		sizes = []int{8}
	}
	return sizes
}

// Config describes a ping-pong run.
type Config struct {
	// Procs is the number of processes in the run; the bouncing pair is
	// ranks 0 and Peer, everyone else only joins the per-size broadcast.
	// 0 means 16 — enough ranks that the world broadcast is a real tree.
	Procs int
	// Peer is rank 0's partner. 0 picks Procs-1, the farthest rank of the
	// run (contiguous ranks sit on neighboring mesh nodes, so the default
	// maximizes hop count).
	Peer int
	// Sizes are the message sizes in bytes; nil uses DefaultSizes(1 MiB).
	Sizes []int
	// Reps is the number of round trips per size; 0 means 10. Virtual
	// time is deterministic, so repetitions don't average noise — they
	// exercise the mailbox exactly like the practical's timing loop.
	Reps  int
	Model machine.Model
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next receive boundary and the run returns Ctx.Err(). A nil Ctx
	// preserves run-to-completion behavior.
	Ctx context.Context
}

// Point reports one size of the sweep.
type Point struct {
	Bytes     int
	RoundTrip float64 // modelled round-trip time, seconds
	OneWay    float64 // RoundTrip / 2
	Bandwidth float64 // Bytes / OneWay, bytes per second
}

// Outcome reports a run: the per-size sweep plus the two headline numbers
// the practical asks for.
type Outcome struct {
	Points    []Point
	Latency   float64 // one-way time of the smallest message, seconds
	Bandwidth float64 // of the largest message, bytes per second
	Run       *nx.Result
}

// Run executes the ping-pong sweep.
func Run(cfg Config) (*Outcome, error) {
	procs := cfg.Procs
	if procs == 0 {
		procs = 16
	}
	if procs < 2 || procs > cfg.Model.Nodes() {
		return nil, fmt.Errorf("micro: Procs=%d invalid for %d-node model (want 2..nodes)", procs, cfg.Model.Nodes())
	}
	peer := cfg.Peer
	if peer == 0 {
		peer = procs - 1
	}
	if peer < 1 || peer >= procs {
		return nil, fmt.Errorf("micro: Peer=%d invalid for %d processes", peer, procs)
	}
	reps := cfg.Reps
	if reps == 0 {
		reps = 10
	}
	if reps < 1 {
		return nil, errors.New("micro: Reps must be positive")
	}
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = DefaultSizes(1 << 20)
	}
	for _, nb := range sizes {
		if nb < 0 {
			return nil, fmt.Errorf("micro: negative message size %d", nb)
		}
	}

	rts := make([]float64, len(sizes))
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: procs, Ctx: cfg.Ctx}, func(p *nx.Proc) {
		for si, nb := range sizes {
			switch p.Rank() {
			case 0:
				t0 := p.Now()
				for r := 0; r < reps; r++ {
					p.SendPhantom(peer, tagPing, nb)
					p.Recv(peer, tagPong)
				}
				rts[si] = (p.Now() - t0) / float64(reps)
				p.ExchangeBatchPhantom(peer, tagExch, nb, 1)
			case peer:
				for r := 0; r < reps; r++ {
					p.Recv(0, tagPing)
					p.SendPhantom(0, tagPong, nb)
				}
				p.ExchangeBatchPhantom(0, tagExch, nb, 1)
			}
			// Every rank joins a broadcast between sizes: it keeps the
			// idle ranks in the program (so the sweep canaries the fused
			// engine at full width) and separates the sizes in the trace.
			p.World().BcastPhantom(0, 8)
		}
	})
	if err != nil {
		return nil, err
	}

	out := &Outcome{Run: res, Points: make([]Point, len(sizes))}
	for si, nb := range sizes {
		rt := rts[si]
		pt := Point{Bytes: nb, RoundTrip: rt, OneWay: rt / 2}
		if pt.OneWay > 0 {
			pt.Bandwidth = float64(nb) / pt.OneWay
		}
		out.Points[si] = pt
	}
	out.Latency = out.Points[0].OneWay
	out.Bandwidth = out.Points[len(out.Points)-1].Bandwidth
	return out, nil
}
