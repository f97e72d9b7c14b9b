package nx

// Fused analytic collectives.
//
// The tree collectives in group.go move O(k) real messages through k
// mailboxes per operation; at Delta scale (phantom LINPACK: three
// column-group collectives per matrix column, 25 000 columns) every tree
// edge is a mailbox put/get with a potential coroutine park/resume, and
// the host cost of a run is dominated by that per-message software
// overhead — not by the arithmetic of the virtual-time model.
//
// The fused engine removes the messages without changing the model: when
// every member of a Group enters the same collective, each member posts
// its entry clock (plus its payload contribution) to a per-group
// rendezvous, and once every entry is in, the whole tree is replayed
// analytically — applying the exact per-edge formulas sendRaw and recvRaw
// use (SendOverhead, ByteTime, Latency, PerHop·hops, RecvOverhead), in
// the exact per-member program order the tree algorithms execute — and
// every member is released with its exit clock, its stat deltas and its
// result payload. Virtual times, ProcStats and trace spans are
// bit-identical to the tree path; only the host-time cost changes. CI
// gates the equivalence with a differential test (fused_test.go) and a
// full-report byte-identity cmp step.
//
// Two further mechanisms make the engine fast rather than merely
// message-free:
//
//   - Deferred settlement. A phantom collective returns no data, so a
//     member does not wait for its release: it posts a *symbolic* entry
//     (previous release ⊕ recorded local advances) and keeps running —
//     through more phantom collectives if the program offers them. A
//     member parks only when it needs a concrete clock (a point-to-point
//     message, Now, a data-carrying collective, Barrier) or after
//     pendLimit outstanding releases (adaptive in the process count; see
//     adaptivePendLimit). Rendezvous resolve in dependency order
//     through the completion cascade (fusedCascade), so parks collapse
//     from one per collective edge to roughly one per chain.
//   - Pooled rendezvous. Rendezvous, their scratch and their release
//     arrays are recycled per group, so steady-state phantom collectives
//     allocate nothing.
//
// The engine runs inside whichever process posts, on the scheduler's
// single thread (see runtime.schedule), so its state needs no lock: a
// settler whose release is outstanding parks, and the cascade that
// completes the rendezvous wakes it.
//
// One semantic difference from the tree path: a fused collective is a
// full-group rendezvous in host time — no member's release exists until
// every member has entered — where a tree broadcast releases a member
// after only its ancestor chain has sent. Programs that schedule a
// point-to-point dependency against collective order (one member must
// complete the collective to unblock another member's *entry* into it)
// deadlock here, and Run reports the deadlock; see the collective-modes
// section of docs/WORKLOADS.md.
//
// The second-generation collectives (ring allreduce, scatter, scan) stay
// on the message path in every mode; they are ablation baselines, not hot
// paths.

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/trace"
)

// CollectiveMode selects how Group collectives execute.
type CollectiveMode int

// Collective execution modes.
const (
	// CollectivesAuto (the zero value) uses the process-wide default:
	// fused, unless SetDefaultCollectives or the HPCC_COLLECTIVES
	// environment variable ("tree" or "fused") says otherwise.
	CollectivesAuto CollectiveMode = iota
	// CollectivesFused computes each collective analytically in one
	// rendezvous (this file). Virtual times and stats are bit-identical
	// to CollectivesTree.
	CollectivesFused
	// CollectivesTree schedules every tree edge as a real point-to-point
	// message (the legacy path in group.go).
	CollectivesTree
)

// String names the mode.
func (m CollectiveMode) String() string {
	switch m {
	case CollectivesAuto:
		return "auto"
	case CollectivesFused:
		return "fused"
	case CollectivesTree:
		return "tree"
	}
	return fmt.Sprintf("CollectiveMode(%d)", int(m))
}

// ParseCollectiveMode maps the CLI/env spelling of a mode to its value.
func ParseCollectiveMode(s string) (CollectiveMode, error) {
	switch s {
	case "", "auto":
		return CollectivesAuto, nil
	case "fused":
		return CollectivesFused, nil
	case "tree":
		return CollectivesTree, nil
	}
	return CollectivesAuto, fmt.Errorf("nx: unknown collective mode %q (want fused or tree)", s)
}

// defaultCollectives is what CollectivesAuto resolves to. It is atomic so
// a CLI flag handler can set it once while worker pools are quiescent
// without racing the runtime's readers.
var defaultCollectives atomic.Int32

func init() {
	defaultCollectives.Store(int32(CollectivesFused))
	// Worker processes inherit the parent's -collectives choice through
	// the environment (the shard executor re-execs the binary without
	// re-passing flags).
	if m, err := ParseCollectiveMode(os.Getenv("HPCC_COLLECTIVES")); err == nil && m != CollectivesAuto {
		defaultCollectives.Store(int32(m))
	}
}

// SetDefaultCollectives sets what CollectivesAuto resolves to for runs
// that do not pin Config.Collectives. It is meant to be called once at
// process start (the hpcc -collectives flag); mid-run calls affect only
// runs started afterwards.
func SetDefaultCollectives(m CollectiveMode) {
	if m == CollectivesAuto {
		m = CollectivesFused
	}
	defaultCollectives.Store(int32(m))
}

// DefaultCollectives returns what CollectivesAuto currently resolves to.
func DefaultCollectives() CollectiveMode {
	return CollectiveMode(defaultCollectives.Load())
}

// fusedKind identifies which collective algorithm a rendezvous replays.
type fusedKind int8

const (
	fusedBarrier fusedKind = iota
	fusedBcast
	fusedFlatBcast
	fusedReduceFloats
	fusedReducePhantom
	fusedGather
	// The allreduce kinds replay a reduce tree immediately followed by a
	// broadcast tree — the Allreduce{Floats,Phantom} pair — in one
	// rendezvous, so the hottest pattern (LINPACK's per-column pivot
	// exchange) pays one synchronization instead of two.
	fusedAllreduceFloats
	fusedAllreducePhantom
	// fusedExchange replays a batch of identical symmetric pairwise
	// phantom exchanges (send+recv with one peer, repeated entry.count
	// times) in one rendezvous; see Proc.ExchangeBatchPhantom.
	fusedExchange
)

func (k fusedKind) String() string {
	switch k {
	case fusedBarrier:
		return "Barrier"
	case fusedBcast:
		return "Bcast"
	case fusedFlatBcast:
		return "BcastFlat"
	case fusedReduceFloats:
		return "ReduceFloats"
	case fusedReducePhantom:
		return "ReducePhantom"
	case fusedGather:
		return "GatherFloats"
	case fusedAllreduceFloats:
		return "AllreduceFloats"
	case fusedAllreducePhantom:
		return "AllreducePhantom"
	case fusedExchange:
		return "ExchangeBatch"
	}
	return fmt.Sprintf("fusedKind(%d)", int(k))
}

// tags returns how many collective tags the kind's tree equivalent
// consumes, so fused and tree runs keep identical tag sequences.
func (k fusedKind) tags() int {
	if k == fusedAllreduceFloats || k == fusedAllreducePhantom {
		return 2
	}
	return 1
}

// fusedEntry is one member's contribution to a rendezvous: what it is
// running, where its clock and RecvWait accumulator stand, and its
// payload.
//
// An entry is either concrete (prev == nil: clock and recvWait hold the
// member's state at entry) or symbolic (prev != nil: the member entered
// while its release from a previous rendezvous was still outstanding, so
// its entry state is prev's release for prevIdx advanced by the recorded
// deltas — the exact Compute/Elapse charges, in order, so the resolved
// clock is bit-identical to the eager one). Symbolic entries are what let
// a member run ahead through phantom collectives without parking; see
// fusedRendezvous.
type fusedEntry struct {
	kind     fusedKind
	root     int
	nbytes   int
	count    int // fusedExchange: exchanges in the batch
	clock    float64
	recvWait float64
	pl       payload
	op       ReduceOp

	prev    *rendezvous
	prevIdx int
	deltas  []float64
}

// fusedRelease is what a member receives back: its state after the
// collective. clock and recvWait are absolute values (the engine replays
// the member's exact sequence of float additions, so handing back the
// final accumulator preserves bit-identity with the tree path, which a
// recomputed delta would not). bytes and msgs are integer deltas.
type fusedRelease struct {
	clock    float64
	recvWait float64
	bytes    int64
	msgs     int64
	pl       payload
	spans    []traceSpan
}

// traceSpan is one deferred trace record the member applies on release.
type traceSpan struct {
	phase      trace.Phase
	start, end float64
}

// groupSlot is the per-member-list rendezvous anchor, shared by every
// member's Group handle. Because
// members may run ahead through deferred collectives, a slot holds a ring
// of in-flight rendezvous in sequence order: ring[i] serves the slot's
// collective number baseSeq+i. Completed-and-settled rendezvous are
// recycled through free, so steady-state collectives allocate nothing.
//
// Sequencing is sound because a member's posts on a slot are numbered by
// the slot's per-member count and program order ties those numbers
// together: member entries with the same number always belong to the same
// collective — including across distinct Group handles with the same
// member list, which share the slot exactly as they share the tag space
// on the tree path. (Two same-member groups used concurrently from the
// same process would break that, the documented Group caveat; the slot
// detects the resulting double entry and panics instead of corrupting
// clocks.)
type groupSlot struct {
	ring    []*rendezvous
	baseSeq int
	counts  []int // per-member posts so far; a post's number is its member's count
	free    []*rendezvous
	members []int // the member list the slot serves, in group order
}

// rendezvous collects the entries of one collective and, once complete,
// the per-member releases. The slices and the engine's scratch are pooled
// across the collectives of a slot.
type rendezvous struct {
	slot       *groupSlot
	entries    []fusedEntry
	present    []bool // per-member entry filed; entries themselves stay dirty between uses
	arrived    int
	unresolved int  // entries still symbolic (their prev not done)
	done       bool // replayed: rels are final
	settled    int  // members that have applied their release
	retired    bool // fully settled; awaiting head-order recycling
	rels       []fusedRelease
	deps       []fusedDep // entries elsewhere waiting on this completion
	waiters    []*Proc    // settlers parked for this completion

	// Engine scratch, sized to the group on first use.
	arr  []float64   // per-member arrival times
	flt  [][]float64 // per-member float-slice scratch (reduce accumulators)
	sent [][]float64 // reduce: the acc snapshot each member sent
}

// fusedDep records one symbolic entry (of another rendezvous) awaiting
// this rendezvous' completion.
type fusedDep struct {
	r   *rendezvous
	idx int
}

// pendRef is one unsettled rendezvous on a member's deferred chain.
type pendRef struct {
	r   *rendezvous
	idx int
}

// adaptivePendLimit sizes a member's deferred-settlement window from the
// process count. The window bounds in-flight rendezvous per slot (memory)
// and how much work a cancelled run finishes before parking (latency),
// while deeper windows batch more collective chains per host park. Small
// runs keep a modest floor so tests still exercise deferral; large runs
// saturate at 64 — on cold E4 a 128-deep window measured ~15% slower
// than 64 (more live rendezvous per slot than the cache likes) while 32
// and 64 tie, so the cap sits at the shallowest depth that keeps the
// batching win.
func adaptivePendLimit(n int) int {
	l := n / 4
	if l < 16 {
		l = 16
	}
	if l > 64 {
		l = 64
	}
	return l
}

// slot returns (creating on first use) the rendezvous anchor for a member
// list, keyed by its packed encoding. members is recorded on the slot at
// creation (exchange callers replay from it; every caller passes an
// identical list for a given key).
func (rt *runtime) slot(key string, members []int) *groupSlot {
	if rt.slots == nil {
		rt.slots = make(map[string]*groupSlot)
	}
	s := rt.slots[key]
	if s == nil {
		s = &groupSlot{members: members, counts: make([]int, len(members))}
		rt.slots[key] = s
	}
	return s
}

// membersKey packs the member list into a string key (4 bytes LE per
// rank). Cached on the Group so steady-state collectives skip it.
func (g *Group) membersKey() string {
	b := make([]byte, 0, 4*len(g.members))
	for _, m := range g.members {
		b = append(b, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(b)
}

// fusedCollective is the member side of the engine for Group
// collectives: post the entry; lazy operations (the phantom collectives,
// which carry no result) keep running with the release deferred, the
// rest settle immediately. Every member of the group must call it with
// the same kind, root and laziness (the public methods guarantee that);
// pl and nbytes carry per-member contributions.
func (g *Group) fusedCollective(kind fusedKind, root, nbytes int, pl payload, op ReduceOp, lazy bool) payload {
	for t := kind.tags(); t > 0; t-- {
		g.nextTag() // keep the tag sequence aligned with the tree path
	}
	if g.slot == nil {
		g.slot = g.p.rt.slot(g.membersKey(), g.members)
	}
	return fusedRendezvous(g.p, g.slot, g.me, lazy, &fusedEntry{
		kind:   kind,
		root:   root,
		nbytes: nbytes,
		pl:     pl,
		op:     op,
	})
}

// fusedRendezvous is the shared member-side protocol for fused
// collectives and fused exchanges: post the entry (symbolically when
// earlier releases are still outstanding — the deferred-settlement fast
// path), trigger the analytic replay when this arrival completes a
// resolvable rendezvous, and either defer the release or settle.
//
// lazy must only be set for operations whose release carries no payload
// and whose tree path the caller does not rely on for host-side memory
// ordering: a deferred member passes the operation without parking, so
// the only synchronization it provides is virtual-time. That holds for
// the phantom collectives and exchanges; Barrier and every data-carrying
// operation settle before returning.
func fusedRendezvous(p *Proc, s *groupSlot, me int, lazy bool, e *fusedEntry) payload {
	// Tracing needs a concrete clock at every Compute/Elapse, so deferral
	// is disabled for traced runs; they settle each operation eagerly.
	lazy = lazy && !p.rt.traceOn
	if len(p.pend) > 0 {
		// Symbolic entry: state = previous release ⊕ recorded local
		// advances. recvWait is resolved from the same release; local
		// work never touches it.
		tail := p.pend[len(p.pend)-1]
		e.prev = tail.r
		e.prevIdx = tail.idx
		e.deltas = p.deltaBuf[p.deltaLo:len(p.deltaBuf):len(p.deltaBuf)]
	} else {
		e.clock = p.clock.Now()
		e.recvWait = p.stats.RecvWait
	}
	r := fusedPost(p, s, me, e)
	p.pend = append(p.pend, pendRef{r: r, idx: me})
	p.deltaLo = len(p.deltaBuf)
	if lazy && len(p.pend) < p.rt.pendLimit {
		return payload{}
	}
	return p.settle()
}

// fusedPost files entry e as member me of the slot's next collective for
// that member (the slot's per-member post count — group handles with the
// same member list share it, so sequentially interleaved same-member
// groups stay aligned exactly as they do on the tree path), resolves or
// registers the entry's symbolic dependency, and runs the completion
// cascade when this event makes a rendezvous computable.
func fusedPost(p *Proc, s *groupSlot, me int, e *fusedEntry) *rendezvous {
	k := len(s.members)
	idx := s.counts[me] - s.baseSeq
	s.counts[me]++
	for idx >= len(s.ring) {
		s.ring = append(s.ring, s.takeFree(k))
	}
	r := s.ring[idx]
	if len(r.entries) != k || r.present[me] {
		panic(fmt.Sprintf("nx: rank %d: overlapping fused collectives on one member list "+
			"(distinct same-member groups used concurrently?)", p.rank))
	}
	r.entries[me] = *e
	r.present[me] = true
	r.arrived++
	if e.prev != nil {
		if e.prev.done {
			resolveEntry(r, me)
		} else {
			r.unresolved++
			e.prev.deps = append(e.prev.deps, fusedDep{r: r, idx: me})
		}
	}
	if r.arrived == k && r.unresolved == 0 {
		fusedCascade(p, r)
	}
	return r
}

// takeFree returns a recycled (or fresh) rendezvous sized for k members.
// Entries are left dirty — every member overwrites its own before the
// rendezvous can compute — only the presence bits are cleared.
func (s *groupSlot) takeFree(k int) *rendezvous {
	var r *rendezvous
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &rendezvous{slot: s}
	}
	if cap(r.entries) < k {
		r.entries = make([]fusedEntry, k)
		r.present = make([]bool, k)
		r.rels = make([]fusedRelease, k)
	}
	r.entries = r.entries[:k]
	r.present = r.present[:k]
	r.rels = r.rels[:k]
	for i := range r.present {
		r.present[i] = false
	}
	r.arrived, r.unresolved, r.settled = 0, 0, 0
	r.done, r.retired = false, false
	r.deps = r.deps[:0]
	r.waiters = r.waiters[:0]
	return r
}

// resolveEntry makes a symbolic entry concrete from its (completed)
// dependency: the exact advance sequence the member recorded, replayed on
// the release clock.
func resolveEntry(r *rendezvous, i int) {
	e := &r.entries[i]
	base := &e.prev.rels[e.prevIdx]
	c := base.clock
	for _, d := range e.deltas {
		advance(&c, d)
	}
	e.clock = c
	e.recvWait = base.recvWait
	e.prev = nil
	e.deltas = nil
}

// fusedCascade replays a computable rendezvous and cascades: completing
// one rendezvous resolves symbolic entries registered on it, which can
// make further rendezvous computable, and wakes the members parked on each
// completion. The worklist keeps the cascade iterative.
func fusedCascade(p *Proc, r *rendezvous) {
	rt := p.rt
	work := rt.cascade[:0]
	work = append(work, r)
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		fusedCompute(p, r)
		r.done = true
		for _, w := range r.waiters {
			rt.wake(w)
		}
		r.waiters = r.waiters[:0]
		for _, d := range r.deps {
			resolveEntry(d.r, d.idx)
			d.r.unresolved--
			if d.r.arrived == len(d.r.entries) && d.r.unresolved == 0 {
				work = append(work, d.r)
			}
		}
		r.deps = r.deps[:0]
	}
	rt.cascade = work
}

// settle applies this member's outstanding releases: park until the tail
// rendezvous completes (every earlier one completes first — each member's
// chain is resolved in order), then fold the releases into the clock and
// stats exactly as the eager path would, replay any trailing local
// advances, and recycle fully settled rendezvous. It returns the tail
// release's payload for callers that need a result.
func (p *Proc) settle() payload {
	if len(p.pend) == 0 {
		return payload{}
	}
	tail := p.pend[len(p.pend)-1]
	if !tail.r.done {
		// The completion cascade wakes every member registered here.
		tail.r.waiters = append(tail.r.waiters, p)
		p.park(blockedFused)
	}

	// Fold the releases into this member's stats: everything up to the
	// tail is done (each member's chain resolves in order), and nothing
	// can be recycled before this member's settled marks below.
	var bytes, msgs int64
	for _, pr := range p.pend {
		rel := &pr.r.rels[pr.idx]
		bytes += rel.bytes
		msgs += rel.msgs
		for _, sp := range rel.spans {
			p.tview.Add(sp.phase, sp.start, sp.end)
		}
	}
	last := &tail.r.rels[tail.idx]
	out := last.pl
	clock, recvWait := last.clock, last.recvWait

	// Retire the chain. A rendezvous is retired by its final settler;
	// recycling is head-driven per slot, so it is indifferent to which
	// member settles last.
	for _, pr := range p.pend {
		pr.r.settled++
		if pr.r.settled != len(pr.r.entries) {
			continue
		}
		pr.r.retired = true
		s := pr.r.slot
		for len(s.ring) > 0 && s.ring[0].retired {
			head := s.ring[0]
			s.ring = s.ring[1:]
			s.baseSeq++
			s.free = append(s.free, head)
		}
	}

	p.clock.MergeAtLeast(clock)
	p.stats.RecvWait = recvWait
	p.stats.BytesSent += bytes
	p.stats.MsgsSent += msgs
	// Local advances recorded after the tail entry replay onto the
	// settled clock in their original order.
	for _, d := range p.deltaBuf[p.deltaLo:] {
		p.clock.Advance(d)
	}
	p.pend = p.pend[:0]
	p.deltaBuf = p.deltaBuf[:0]
	p.deltaLo = 0
	return out
}

// fusedSim is the analytic replay state: one release accumulator per
// member, advanced by edge helpers that mirror sendRaw/recvRaw exactly.
type fusedSim struct {
	p       *Proc
	members []int
	r       *rendezvous
}

// fusedCompute validates the entries of a full, fully resolved
// rendezvous, replays the collective's tree in dependency order, and
// fills r.rels with one release per member. It runs in whichever
// process made the rendezvous computable (the last arriver, or a
// completer cascading through symbolic entries).
func fusedCompute(p *Proc, r *rendezvous) {
	members := r.slot.members
	entries := r.entries
	kind, root := entries[0].kind, entries[0].root
	for i := range entries {
		e := &entries[i]
		if e.kind != kind || e.root != root {
			panic(fmt.Sprintf("nx: mismatched collectives on one group: member %d (rank %d) entered %v(root %d), member 0 (rank %d) entered %v(root %d)",
				i, members[i], e.kind, e.root, members[0], kind, root))
		}
	}
	for i := range entries {
		r.rels[i] = fusedRelease{clock: entries[i].clock, recvWait: entries[i].recvWait}
	}
	f := &fusedSim{p: p, members: members, r: r}
	switch kind {
	case fusedBarrier:
		f.barrier()
	case fusedBcast:
		f.bcast(root)
	case fusedFlatBcast:
		f.flatBcast(root)
	case fusedReduceFloats:
		f.reduce(root, true)
	case fusedReducePhantom:
		f.reduce(root, false)
	case fusedGather:
		f.gather(root)
	case fusedAllreduceFloats:
		f.reduce(root, true)
		f.bcastReduced(root)
	case fusedAllreducePhantom:
		f.reduce(root, false)
		f.bcastPayload(root, payload{bytes: r.entries[root].nbytes})
	case fusedExchange:
		a, b := &entries[0], &entries[1]
		if a.nbytes != b.nbytes || a.count != b.count {
			panic(fmt.Sprintf("nx: mismatched exchange batch between ranks %d and %d: %d×%dB vs %d×%dB",
				members[0], members[1], a.count, a.nbytes, b.count, b.nbytes))
		}
		f.exchange(a.nbytes, a.count)
	default:
		panic(fmt.Sprintf("nx: unknown fused collective kind %v", kind))
	}
}

// advance mirrors vtime.Clock.Advance: negative and NaN durations are
// ignored, so the replayed clocks agree with the tree path bit for bit.
func advance(c *float64, d float64) {
	if d > 0 && !math.IsNaN(d) {
		*c += d
	}
}

// hops is Proc.hops between two members' global ranks: the Manhattan
// distance of dimension-order routing on the model mesh.
func (f *fusedSim) hops(i, j int) int {
	cols := f.p.meshCols
	a, b := f.members[i], f.members[j]
	return iabs(a/cols-b/cols) + iabs(a%cols-b%cols)
}

// send replays sendRaw for an edge from member i to member j and returns
// the message's virtual arrival time at j. Formula and evaluation order
// are sendRaw's exactly.
func (f *fusedSim) send(i, j, nbytes int) float64 {
	net := &f.p.model.Net
	r := &f.r.rels[i]
	start := r.clock
	advance(&r.clock, net.SendOverhead+float64(nbytes)*net.ByteTime)
	arrive := r.clock + net.Latency + float64(f.hops(i, j))*net.PerHop
	r.bytes += int64(nbytes)
	r.msgs++
	if f.p.rt.traceOn {
		r.spans = append(r.spans, traceSpan{trace.PhaseSend, start, r.clock})
	}
	return arrive
}

// recv replays recvRaw on member j for a message arriving at the given
// virtual time: Lamport-merge the arrival, account the wait, charge the
// receive overhead.
func (f *fusedSim) recv(j int, arrive float64) {
	net := &f.p.model.Net
	r := &f.r.rels[j]
	start := r.clock
	if arrive > r.clock {
		r.recvWait += arrive - r.clock
		r.clock = arrive
	}
	advance(&r.clock, net.RecvOverhead)
	if f.p.rt.traceOn {
		r.spans = append(r.spans, traceSpan{trace.PhaseRecvWait, start, r.clock})
	}
}

// scratchArr returns the pooled n-element arrival scratch.
func (f *fusedSim) scratchArr() []float64 {
	n := len(f.r.entries)
	if cap(f.r.arr) < n {
		f.r.arr = make([]float64, n)
	}
	return f.r.arr[:n]
}

// scratchFloats returns the pooled n-element slice-of-slices scratch,
// cleared.
func scratchFloats(buf *[][]float64, n int) [][]float64 {
	if cap(*buf) < n {
		*buf = make([][]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// barrier replays Group.Barrier's dissemination rounds: in round k every
// member sends to (me+k)%n then receives from (me-k+n)%n. Sends of a
// round are replayed before its receives, which is each member's program
// order and satisfies the cross-member arrival dependencies.
func (f *fusedSim) barrier() {
	n := len(f.r.entries)
	arr := f.scratchArr()
	for k := 1; k < n; k <<= 1 {
		for i := 0; i < n; i++ {
			to := (i + k) % n
			arr[to] = f.send(i, to, 0)
		}
		for i := 0; i < n; i++ {
			f.recv(i, arr[i])
		}
	}
}

// bcast replays Group.bcast's binomial tree in increasing virtual-rank
// order (parents precede children), duplicating the legacy mask loop per
// member. Every member's release carries the root's payload — the same
// object the tree path forwards by reference.
func (f *fusedSim) bcast(root int) {
	f.bcastPayload(root, f.r.entries[root].pl)
}

// bcastPayload is bcast for an explicit payload (the allreduce replay
// broadcasts the freshly reduced vector, not the root's entry payload).
func (f *fusedSim) bcastPayload(root int, pl payload) {
	n := len(f.r.entries)
	arr := f.scratchArr()
	for v := 0; v < n; v++ {
		i := (v + root) % n
		mask := 1
		if v == 0 {
			for mask < n {
				mask <<= 1
			}
		} else {
			for mask < n {
				if v&mask != 0 {
					f.recv(i, arr[i])
					break
				}
				mask <<= 1
			}
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if v+mask < n {
				dst := ((v + mask) + root) % n
				arr[dst] = f.send(i, dst, pl.bytes)
			}
		}
		f.r.rels[i].pl = pl
	}
}

// bcastReduced finishes an AllreduceFloats: the root copies its reduced
// accumulator (exactly as BcastFloats' root copies its argument) and the
// copy is broadcast to every member.
func (f *fusedSim) bcastReduced(root int) {
	red := f.r.rels[root].pl.floats
	cp := append([]float64(nil), red...)
	f.bcastPayload(root, payload{floats: cp, bytes: 8 * len(cp)})
}

// flatBcast replays BcastFlatPhantom: the root sends to every member in
// group order, each member receives one message.
func (f *fusedSim) flatBcast(root int) {
	n := len(f.r.entries)
	nbytes := f.r.entries[root].nbytes
	arr := f.scratchArr()
	for i := 0; i < n; i++ {
		if i != root {
			arr[i] = f.send(root, i, nbytes)
		}
	}
	for i := 0; i < n; i++ {
		if i != root {
			f.recv(i, arr[i])
		}
	}
}

// reduce replays ReduceFloats (floats=true) or ReducePhantom
// (floats=false): members are processed in decreasing virtual rank, so
// every child's send is replayed before its parent's receive; within a
// member the legacy mask loop runs verbatim, including the combine order
// that makes tree reductions bitwise reproducible. The root's release
// payload carries the reduced accumulator; senders' are nil, exactly as
// the tree path returns.
func (f *fusedSim) reduce(root int, floats bool) {
	n := len(f.r.entries)
	arr := f.scratchArr()
	var accs, sent [][]float64
	if floats {
		accs = scratchFloats(&f.r.flt, n)
		sent = scratchFloats(&f.r.sent, n)
		for i := range accs {
			accs[i] = f.r.entries[i].pl.floats
		}
	}
	for v := n - 1; v >= 0; v-- {
		i := (v + root) % n
		mask := 1
		for mask < n {
			if v&mask != 0 {
				nbytes := f.r.entries[i].nbytes
				if floats {
					nbytes = 8 * len(accs[i])
				}
				arr[i] = f.send(i, ((v-mask)+root)%n, nbytes)
				if floats {
					sent[i] = accs[i]
					accs[i] = nil
				}
				break
			}
			if v+mask < n {
				src := ((v + mask) + root) % n
				f.recv(i, arr[src])
				if floats {
					in := sent[src]
					if len(in) != len(accs[i]) {
						panic(fmt.Sprintf("nx: reduce length mismatch: %d vs %d", len(in), len(accs[i])))
					}
					f.r.entries[i].op(accs[i], in)
				}
			}
			mask <<= 1
		}
		if floats {
			f.r.rels[i].pl = payload{floats: accs[i]}
		}
	}
}

// exchange replays a batch of count symmetric pairwise phantom
// exchanges: each step is, for both members, SendPhantom to the peer then
// Recv from the peer — sends of a step replayed before its receives,
// which is each member's program order and satisfies the cross-member
// arrival dependency, exactly like one dissemination round of barrier.
func (f *fusedSim) exchange(nbytes, count int) {
	arr := f.scratchArr()
	for s := 0; s < count; s++ {
		arr[1] = f.send(0, 1, nbytes)
		arr[0] = f.send(1, 0, nbytes)
		f.recv(0, arr[0])
		f.recv(1, arr[1])
	}
}

// gather replays GatherFloats: every non-root sends its contribution to
// the root, which receives them in group order and concatenates all
// contributions (its own in place) into one freshly built slice.
func (f *fusedSim) gather(root int) {
	n := len(f.r.entries)
	arr := f.scratchArr()
	for i := 0; i < n; i++ {
		if i != root {
			arr[i] = f.send(i, root, 8*len(f.r.entries[i].pl.floats))
		}
	}
	total := len(f.r.entries[root].pl.floats)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		f.recv(root, arr[i])
		total += len(f.r.entries[i].pl.floats)
	}
	out := make([]float64, 0, total)
	for i := 0; i < n; i++ {
		out = append(out, f.r.entries[i].pl.floats...)
	}
	f.r.rels[root].pl = payload{floats: out}
}
