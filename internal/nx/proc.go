package nx

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Proc is one simulated process. All methods must be called from the
// process's own body, the coroutine Run started for it.
type Proc struct {
	rank  int
	size  int
	model machine.Model
	clock vtime.Clock
	mbox  mailbox
	rt    *runtime
	stats ProcStats
	tview *trace.ProcView
	fused bool // run-wide collective mode (see Config.Collectives)

	// The coroutine Run drives this process with (see runtime.schedule):
	// yield parks the body, resume and stop are the scheduler's handles.
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()

	// Deferred-settlement state (fused mode). pend is the chain of
	// rendezvous whose releases this process has not yet applied; while it
	// is non-empty the clock is stale and local advances accumulate in
	// deltaBuf (deltaBuf[deltaLo:] are the advances since the last entry
	// was posted). deltaBuf entries up to deltaLo are read when other
	// members' posts resolve this process's symbolic entries; the owner
	// only appends, and resets only after every reader is done (settle).
	pend     []pendRef
	deltaBuf []float64
	deltaLo  int
	// exchSlots caches per-peer exchange rendezvous anchors (see
	// ExchangeBatchPhantom).
	exchSlots map[int]*groupSlot

	// Hot-path caches derived from model at construction. Method calls on
	// machine.Model copy the whole struct (~100 bytes) per call, which at
	// Delta scale is millions of copies per phantom run; these scalars
	// make sends and compute charges copy-free while producing bit-
	// identical virtual times (same formulas, same operand values).
	meshCols     int
	myRow, myCol int
	rates        [numRateOps]float64 // machine.Compute.Rate(op) per op
}

// numRateOps covers the machine.Op classes (gemm, panel, vector, scalar).
// An op outside the cached range falls back to the model's own method.
const numRateOps = 4

// initCaches fills the derived hot-path fields from the model.
func (p *Proc) initCaches() {
	p.meshCols = p.model.Cols
	p.myRow, p.myCol = p.model.Coord(p.rank)
	for op := 0; op < numRateOps; op++ {
		p.rates[op] = p.model.Compute.Rate(machine.Op(op))
	}
}

// hops is machine.Model.Hops for this process's own rank without the
// receiver copy: the Manhattan distance of dimension-order routing.
func (p *Proc) hops(dst int) int {
	dr, dc := dst/p.meshCols, dst%p.meshCols
	return iabs(p.myRow-dr) + iabs(p.myCol-dc)
}

// computeTime is machine.Model.ComputeTime without the receiver copy. The
// expression mirrors the model's exactly, so charges are bit-identical.
func (p *Proc) computeTime(op machine.Op, flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	if op < 0 || int(op) >= numRateOps {
		return p.model.ComputeTime(op, flops)
	}
	return flops / (p.rates[op] * 1e6)
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Rank returns this process's rank in [0, Size()).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processes in the run.
func (p *Proc) Size() int { return p.size }

// Model returns the machine model of the run.
func (p *Proc) Model() machine.Model { return p.model }

// Now returns the process's current virtual time in seconds. It settles
// any deferred collective releases first, so the value reflects every
// operation the process has performed.
func (p *Proc) Now() float64 {
	if len(p.pend) > 0 {
		p.settle()
	}
	return p.clock.Now()
}

// Compute charges flops floating-point operations of the given class to the
// local clock through the machine model. Non-positive charges are exact
// no-ops (zero duration, zero flops, and the trace drops zero-width
// spans), so they return before touching the clock.
func (p *Proc) Compute(op machine.Op, flops float64) {
	if flops <= 0 {
		return
	}
	d := p.computeTime(op, flops)
	if len(p.pend) > 0 {
		// Deferred settlement: the clock is symbolic until the pending
		// collective releases resolve, so record the advance for the
		// resolver to replay in order. Tracing disables deferral
		// (lazyOK), so no span is lost here.
		p.deltaBuf = append(p.deltaBuf, d)
		p.stats.Flops += flops
		p.stats.ComputeTime += d
		return
	}
	start := p.clock.Now()
	p.clock.Advance(d)
	p.stats.Flops += flops
	p.stats.ComputeTime += d
	p.tview.Add(trace.PhaseCompute, start, p.clock.Now())
}

// Elapse advances the local clock by a fixed duration (non-flop work such as
// memory movement or I/O). Negative durations are ignored.
func (p *Proc) Elapse(seconds float64) {
	if len(p.pend) > 0 {
		p.deltaBuf = append(p.deltaBuf, seconds)
		if seconds > 0 {
			p.stats.ComputeTime += seconds
		}
		return
	}
	start := p.clock.Now()
	p.clock.Advance(seconds)
	if seconds > 0 {
		p.stats.ComputeTime += seconds
	}
	p.tview.Add(trace.PhaseCompute, start, p.clock.Now())
}

func (p *Proc) checkDst(dst int) {
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("nx: rank %d sending to invalid rank %d (size %d)", p.rank, dst, p.size))
	}
}

func (p *Proc) checkTag(tag Tag, wildcardOK bool) {
	if wildcardOK && tag == AnyTag {
		return
	}
	if tag < 0 || tag >= TagUserMax {
		// Collective-internal tags are sent through sendRaw directly, so
		// anything arriving here with a reserved tag is a user error.
		panic(fmt.Sprintf("nx: tag %d outside user range [0,%d)", int(tag), int(TagUserMax)))
	}
}

// sendRaw performs the common send path. Exactly one of data/floats may be
// non-nil; nbytes is the modelled payload size.
//
// The sender's clock is charged the software overhead plus the payload
// serialization time: the node's single network port cannot overlap the
// bytes of back-to-back sends (LogGP's per-byte gap G). The message then
// needs only the base latency and per-hop time to arrive, so the one-way
// point-to-point total matches machine.PointToPointTime.
func (p *Proc) sendRaw(dst int, tag Tag, data []byte, floats []float64, nbytes int) {
	p.checkDst(dst)
	if len(p.pend) > 0 {
		p.settle() // the message timestamp needs the concrete clock
	}
	start := p.clock.Now()
	p.clock.Advance(p.model.Net.SendOverhead + float64(nbytes)*p.model.Net.ByteTime)
	arrive := p.clock.Now() + p.model.Net.Latency +
		float64(p.hops(dst))*p.model.Net.PerHop
	if q := p.rt.procs[dst]; q.mbox.put(p.rank, tag, data, floats, nbytes, arrive) {
		p.rt.wake(q)
	}
	p.stats.BytesSent += int64(nbytes)
	p.stats.MsgsSent++
	p.tview.Add(trace.PhaseSend, start, p.clock.Now())
}

// Send delivers a copy of data to dst with the given tag (csend).
func (p *Proc) Send(dst int, tag Tag, data []byte) {
	p.checkTag(tag, false)
	cp := append([]byte(nil), data...)
	p.sendRaw(dst, tag, cp, nil, len(cp))
}

// SendFloats delivers a copy of xs to dst with the given tag.
func (p *Proc) SendFloats(dst int, tag Tag, xs []float64) {
	p.checkTag(tag, false)
	cp := append([]float64(nil), xs...)
	p.sendRaw(dst, tag, nil, cp, 8*len(cp))
}

// SendPhantom delivers a payload-free message that is accounted (in virtual
// transfer time and byte statistics) as nbytes. Phantom messages let
// Delta-scale runs model communication without moving data.
func (p *Proc) SendPhantom(dst int, tag Tag, nbytes int) {
	p.checkTag(tag, false)
	if nbytes < 0 {
		nbytes = 0
	}
	p.sendRaw(dst, tag, nil, nil, nbytes)
}

// ExchangeBatchPhantom performs count back-to-back symmetric phantom
// exchanges with peer: each exchange is SendPhantom(peer, tag, nbytes)
// followed by Recv(peer, tag), on both sides. Both processes must call it
// with the same nbytes and count. Virtual times and stats are
// bit-identical to writing the loop out by hand; in fused mode the whole
// batch settles as one deferred rendezvous — one synchronization for k
// exchanges instead of 2k mailbox operations — which is what makes the
// LINPACK trailing-swap wavefront cheap (see linpack.applyTrailingSwaps).
func (p *Proc) ExchangeBatchPhantom(peer int, tag Tag, nbytes, count int) {
	p.checkTag(tag, false)
	if count <= 0 {
		return
	}
	if peer == p.rank {
		panic(fmt.Sprintf("nx: rank %d exchanging with itself", p.rank))
	}
	p.checkDst(peer)
	if nbytes < 0 {
		nbytes = 0
	}
	if !p.fused {
		for i := 0; i < count; i++ {
			p.sendRaw(peer, tag, nil, nil, nbytes)
			p.recvRaw(peer, tag)
		}
		return
	}
	s := p.exchSlots[peer]
	if s == nil {
		// The slot key lives in a separate "x" namespace so an exchange
		// pair can never collide with a two-member Group's slot (group
		// keys are always a multiple of 4 bytes long).
		lo, hi := p.rank, peer
		if lo > hi {
			lo, hi = hi, lo
		}
		key := string([]byte{'x',
			byte(lo), byte(lo >> 8), byte(lo >> 16), byte(lo >> 24),
			byte(hi), byte(hi >> 8), byte(hi >> 16), byte(hi >> 24)})
		s = p.rt.slot(key, []int{lo, hi})
		if p.exchSlots == nil {
			p.exchSlots = make(map[int]*groupSlot)
		}
		p.exchSlots[peer] = s
	}
	me := 0
	if p.rank > s.members[0] {
		me = 1
	}
	fusedRendezvous(p, s, me, true, &fusedEntry{
		kind:   fusedExchange,
		nbytes: nbytes,
		count:  count,
	})
}

// recvRaw is the common receive path: block for a match, then merge the
// arrival time and charge the receive overhead.
func (p *Proc) recvRaw(src int, tag Tag) Msg {
	if src != AnySrc && (src < 0 || src >= p.size) {
		panic(fmt.Sprintf("nx: rank %d receiving from invalid rank %d", p.rank, src))
	}
	if len(p.pend) > 0 {
		p.settle() // merging the arrival needs the concrete clock
	}
	start := p.clock.Now()
	msg := p.mbox.get(p, src, tag)
	if msg.ArriveAt > p.clock.Now() {
		p.stats.RecvWait += msg.ArriveAt - p.clock.Now()
		p.clock.MergeAtLeast(msg.ArriveAt)
	}
	p.clock.Advance(p.model.Net.RecvOverhead)
	p.tview.Add(trace.PhaseRecvWait, start, p.clock.Now())
	return msg
}

// Recv blocks until a message matching (src, tag) arrives (crecv). src may
// be AnySrc and tag may be AnyTag; a wildcard receive takes the oldest
// matching message in delivery order.
func (p *Proc) Recv(src int, tag Tag) Msg {
	p.checkTag(tag, true)
	return p.recvRaw(src, tag)
}

// RecvFloats receives a message sent with SendFloats and returns its payload.
// It panics if the matched message does not carry a float payload.
func (p *Proc) RecvFloats(src int, tag Tag) []float64 {
	m := p.Recv(src, tag)
	if m.Floats == nil && m.Bytes != 0 {
		panic(fmt.Sprintf("nx: rank %d: RecvFloats matched non-float message from %d tag %d",
			p.rank, m.Src, int(m.Tag)))
	}
	return m.Floats
}

// Probe reports whether a message matching (src, tag) is already queued.
// It never parks, so other processes do not run while a body loops on it:
// wait for a message with Recv or IRecv instead.
func (p *Proc) Probe(src int, tag Tag) bool {
	return p.mbox.find(src, tag) >= 0
}

// Request is a pending nonblocking receive posted with IRecv. Wait
// completes it.
type Request struct {
	p    *Proc
	src  int
	tag  Tag
	done bool
}

// IRecv posts a nonblocking receive (irecv in NX terms). The returned
// Request must be completed with Wait. Because the runtime buffers eagerly,
// the value of IRecv is virtual-time overlap: computation performed between
// IRecv and Wait advances the local clock, hiding the message's flight
// time, exactly as overlap did on the real machine.
func (p *Proc) IRecv(src int, tag Tag) *Request {
	p.checkTag(tag, true)
	if src != AnySrc && (src < 0 || src >= p.size) {
		panic(fmt.Sprintf("nx: rank %d posting irecv from invalid rank %d", p.rank, src))
	}
	return &Request{p: p, src: src, tag: tag}
}

// Wait blocks until the posted receive completes and returns the message.
// Waiting twice on the same request panics.
func (r *Request) Wait() Msg {
	if r.done {
		panic("nx: Wait on a completed Request")
	}
	r.done = true
	return r.p.recvRaw(r.src, r.tag)
}

// PingPong measures the modelled one-way time for an n-byte message between
// this process and peer; it is used to fit Hockney parameters in tests and
// benches. Both sides must call it with the same arguments; rank a sends
// first. The returned value is the modelled point-to-point time.
func (p *Proc) PingPong(peer int, tag Tag, n int) float64 {
	return p.model.PointToPointTime(p.rank, peer, n)
}
