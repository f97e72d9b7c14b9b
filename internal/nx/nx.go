// Package nx is a virtual-time message-passing runtime modelled on the
// Intel NX system software that ran the Touchstone Delta. It is the
// substrate every distributed experiment in this repository executes on.
//
// Each simulated node runs the same program body (SPMD) as a coroutine, and
// one scheduler loop on the goroutine that called Run resumes them one at a
// time. Blocking send/receive with (source, tag) matching, wildcard receives
// and tree-based collectives mirror the NX csend/crecv/gop interface.
//
// Time is virtual: each process owns a clock (package vtime); computation
// advances it through the machine model (package machine); every message
// carries its arrival timestamp, and a receive merges that timestamp into
// the receiver's clock. The scheduler resumes runnable processes in FIFO
// order with no host concurrency, so a run — wildcard receive matches and
// the reported panic included — is a deterministic function of the program
// and the machine model.
//
// Sends are eager: a send never parks, so programs cannot deadlock on
// buffer exhaustion; rendezvous cost appears in virtual time only. When no
// process is runnable while some are still parked, the run is deadlocked:
// Run reports it at once with a diagnostic instead of hanging the test
// suite.
package nx

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Tag labels a message class. User code must use tags in [0, TagUserMax);
// larger values are reserved for collectives.
type Tag int

// Wildcards and tag-space layout.
const (
	// AnyTag matches any message tag in a receive.
	AnyTag Tag = -1
	// AnySrc matches any source rank in a receive.
	AnySrc int = -1
	// TagUserMax is the first tag reserved for internal use.
	TagUserMax Tag = 1 << 28
)

// Config describes a run.
type Config struct {
	// Model is the machine the program runs on. Required.
	Model machine.Model
	// Procs is the number of processes; 0 means Model.Nodes(). It must not
	// exceed Model.Nodes() (ranks are mapped one-to-one onto mesh nodes).
	Procs int
	// Trace, if non-nil, records per-process activity spans.
	Trace *trace.Recorder
	// Ctx, if non-nil, cancels the run: the scheduler checks it between
	// process resumes, and once Ctx is done the run tears down and Run
	// returns Ctx.Err() instead of a result. A nil Ctx preserves the
	// classic run-to-completion behavior.
	Ctx context.Context
	// Collectives selects how Group collectives execute: fused analytic
	// rendezvous (the default) or the legacy per-edge tree messages.
	// Both produce bit-identical virtual times and stats; see fused.go.
	Collectives CollectiveMode
	// pendLimit overrides the adaptive deferred-settlement window
	// (tests only; 0 = adaptivePendLimit of the process count).
	pendLimit int
}

// ProcStats summarizes one process after a run.
type ProcStats struct {
	Finish      float64 // final virtual clock, seconds
	Flops       float64 // floating-point operations charged
	BytesSent   int64   // payload bytes sent (declared size for phantoms)
	MsgsSent    int64   // messages sent
	ComputeTime float64 // virtual seconds spent in Compute/Elapse
	RecvWait    float64 // virtual seconds spent waiting for messages
}

// Result summarizes a completed run.
type Result struct {
	Makespan   float64 // virtual seconds; max over process finish times
	Procs      []ProcStats
	TotalFlops float64
	TotalBytes int64
	TotalMsgs  int64
}

// GFlops returns the achieved simulated rate in GFLOPS.
func (r *Result) GFlops() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.TotalFlops / r.Makespan / 1e9
}

// DeadlockError reports that every process was blocked in a receive with no
// messages able to satisfy any of them.
type DeadlockError struct {
	// Waiters describes what each blocked process was waiting for.
	Waiters []string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("nx: deadlock: all processes blocked in recv (%d waiters, e.g. %s)",
		len(e.Waiters), firstN(e.Waiters, 4))
}

func firstN(ss []string, n int) string {
	if len(ss) < n {
		n = len(ss)
	}
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += "; "
		}
		out += ss[i]
	}
	return out
}

// PanicError wraps a panic raised inside a process body.
type PanicError struct {
	Rank  int
	Value any
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("nx: process %d panicked: %v", e.Rank, e.Value)
}

// Run executes body on every process of a fresh runtime and returns the
// aggregated result. It returns once all processes finish, one of them
// panics, the run deadlocks, or cfg.Ctx is cancelled.
func Run(cfg Config, body func(p *Proc)) (*Result, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := cfg.Procs
	if n == 0 {
		n = cfg.Model.Nodes()
	}
	if n < 1 || n > cfg.Model.Nodes() {
		return nil, fmt.Errorf("nx: Procs=%d invalid for %d-node model", n, cfg.Model.Nodes())
	}

	mode := cfg.Collectives
	if mode == CollectivesAuto {
		mode = DefaultCollectives()
	}
	pendLimit := cfg.pendLimit
	if pendLimit <= 0 {
		pendLimit = adaptivePendLimit(n)
	}
	rt := &runtime{
		procs:     make([]*Proc, n),
		ready:     make([]*Proc, n),
		traceOn:   cfg.Trace != nil,
		pendLimit: pendLimit,
	}
	// The Proc structs (mailboxes included) are one contiguous
	// allocation, so the run's hot per-process state stays together.
	backing := make([]Proc, n)
	for i := range backing {
		p := &backing[i]
		p.rank, p.size, p.model = i, n, cfg.Model
		p.rt = rt
		p.fused = mode == CollectivesFused
		p.initCaches()
		if cfg.Trace != nil {
			p.tview = cfg.Trace.Proc(i)
		}
		rt.procs[i] = p
	}
	if err := rt.schedule(ctx, body); err != nil {
		return nil, err
	}

	res := &Result{Procs: make([]ProcStats, n)}
	times := make([]float64, n)
	for i, p := range rt.procs {
		p.stats.Finish = p.clock.Now()
		res.Procs[i] = p.stats
		times[i] = p.stats.Finish
		res.TotalFlops += p.stats.Flops
		res.TotalBytes += p.stats.BytesSent
		res.TotalMsgs += p.stats.MsgsSent
	}
	res.Makespan = vtime.Makespan(times)
	return res, nil
}

// runtime is the shared state of one Run invocation. Everything in it is
// touched only by the scheduler loop and the process it is resuming, one
// at a time, so nothing is locked.
type runtime struct {
	procs   []*Proc
	traceOn bool // cfg.Trace was set; fused releases carry trace spans

	// ready is the FIFO run queue, a ring of len(procs) slots: queued
	// processes starting at head. A process is queued at most once (at
	// start, then once per wake from a park), so the ring never overflows.
	ready  []*Proc
	head   int
	queued int
	// err is the first process panic; the scheduler stops at it.
	err error

	// The fused-collective engine: the slot map and the pooled cascade
	// worklist (see fused.go). pendLimit bounds each member's
	// deferred-settlement chain (see adaptivePendLimit).
	slots     map[string]*groupSlot
	cascade   []*rendezvous
	pendLimit int
}

// schedule runs every process body as an iter.Pull coroutine on the calling
// goroutine. It resumes queued processes in FIFO order, starting from ranks
// 0..n-1; a process runs until it finishes or parks (Proc.park), and a
// parked process runs again only after a wake queues it. An empty queue
// with processes still parked is a deadlock, known exactly. On any return
// every unfinished coroutine is stopped, which unwinds its parked body.
func (rt *runtime) schedule(ctx context.Context, body func(p *Proc)) error {
	done := ctx.Done()
	live := len(rt.procs)
	for _, p := range rt.procs {
		p.resume, p.stop = iter.Pull(p.coroutine(body))
	}
	defer func() {
		for _, p := range rt.procs {
			p.stop()
		}
	}()
	copy(rt.ready, rt.procs)
	rt.queued = len(rt.procs)
	for rt.queued > 0 {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		p := rt.ready[rt.head]
		rt.ready[rt.head] = nil
		rt.head = (rt.head + 1) % len(rt.ready)
		rt.queued--
		if _, more := p.resume(); !more {
			live--
		}
		if rt.err != nil {
			return rt.err
		}
	}
	if live > 0 {
		return &DeadlockError{Waiters: rt.waiters()}
	}
	return nil
}

// coroutine wraps body for process p: it runs the body and settles any
// deferred collective releases, so the final clock and stats reflect every
// operation the body performed. A panic is recorded as the run's error
// (the first one wins, which the FIFO schedule makes deterministic); the
// deadlockSignal a torn-down park raises just ends the coroutine.
func (p *Proc) coroutine(body func(p *Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if v := recover(); v != nil {
				if _, torn := v.(deadlockSignal); !torn && p.rt.err == nil {
					p.rt.err = &PanicError{Rank: p.rank, Value: v}
				}
			}
		}()
		body(p)
		p.settle()
	}
}

// park suspends p in the given blocked state (blockedRecv or blockedFused)
// until a wake queues it again. If the run is torn down instead, the yield
// returns false and the park unwinds the body with deadlockSignal.
func (p *Proc) park(state int8) {
	p.mbox.blocked = state
	if !p.yield(struct{}{}) {
		panic(deadlockSignal{})
	}
}

// wake queues a parked process to run again.
func (rt *runtime) wake(p *Proc) {
	p.mbox.blocked = 0
	rt.ready[(rt.head+rt.queued)%len(rt.ready)] = p
	rt.queued++
}

func (rt *runtime) waiters() []string {
	var out []string
	for _, p := range rt.procs {
		if p.mbox.blocked == blockedFused {
			out = append(out, fmt.Sprintf("rank %d waiting in a fused collective (another member never entered it)", p.rank))
			continue
		}
		if w := p.mbox.waitingFor(); w != "" {
			out = append(out, fmt.Sprintf("rank %d waiting for %s", p.rank, w))
		}
	}
	return out
}

// deadlockSignal is panicked inside a parked process to unwind its body
// when the run tears down (deadlock, cancellation or a sibling's panic).
type deadlockSignal struct{}
