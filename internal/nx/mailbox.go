package nx

import "fmt"

// Msg is a received message. Exactly one of Data or Floats is non-nil for
// payload-carrying messages; both are nil for phantom messages, whose
// declared size still contributes to virtual transfer time and statistics.
type Msg struct {
	Src      int
	Tag      Tag
	Data     []byte
	Floats   []float64
	Bytes    int     // payload size in bytes (declared size for phantoms)
	ArriveAt float64 // virtual arrival time at the receiver
}

// mailbox is the per-process receive queue with MPI-style (src, tag)
// matching. put is called by whichever process sends; get only by the
// owner.
//
// Pending messages live in a pooled ring buffer: slots are reused across
// the run, so the phantom-mode hot path (millions of payload-free
// collective messages at Delta scale) performs no steady-state allocation
// per message. The ring preserves arrival order, which is what makes
// wildcard matching and per-sender FIFO behave exactly as the old
// append/delete slice did.
type mailbox struct {
	// buf is the ring: count messages starting at head, oldest first.
	buf   []Msg
	head  int
	count int
	// blocked is the owner's park state: blockedRecv while it waits in
	// get for (wantSrc, wantTag), blockedFused while it waits in a
	// fused-collective rendezvous (fused.go), 0 while it is runnable. The
	// deadlock diagnostics read it.
	blocked int8
	wantSrc int
	wantTag Tag
}

// blocked states (mailbox.blocked).
const (
	blockedRecv  = 1 // parked in mailbox.get
	blockedFused = 2 // parked in a fused-collective rendezvous
)

// put appends one message to the ring, constructing it in place in the
// ring slot — the pooled scratch that keeps the phantom hot path at one
// struct store per delivery, no intermediate Msg value. It reports whether
// the message satisfies the receive the owner is parked in, in which case
// the caller wakes the owner.
//
// The wakeup is match-aware: eager sending means messages for *future*
// receives routinely land while the owner waits on an earlier one, and
// resuming it to rescan and re-park for each of those is pure scheduler
// churn. A non-matching message just joins the ring — the owner's next
// scan (on the matching wakeup, or on its next get) finds it there.
func (m *mailbox) put(src int, tag Tag, data []byte, floats []float64, nbytes int, arriveAt float64) bool {
	if m.count == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.count)%len(m.buf)] = Msg{
		Src: src, Tag: tag, Data: data, Floats: floats,
		Bytes: nbytes, ArriveAt: arriveAt,
	}
	m.count++
	return m.blocked == blockedRecv &&
		(m.wantSrc == AnySrc || src == m.wantSrc) &&
		(m.wantTag == AnyTag || tag == m.wantTag)
}

// grow doubles the ring (from a small floor), unrolling it so the oldest
// message lands at index 0.
func (m *mailbox) grow() {
	n := 2 * len(m.buf)
	if n < 8 {
		n = 8
	}
	nb := make([]Msg, n)
	for i := 0; i < m.count; i++ {
		nb[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf = nb
	m.head = 0
}

// get removes and returns the oldest message matching (src, tag), parking
// the owner p until one is delivered. Matching scans pending messages in
// arrival order, so messages from a given source are received in the order
// they were sent.
func (m *mailbox) get(p *Proc, src int, tag Tag) Msg {
	for {
		if i := m.find(src, tag); i >= 0 {
			out := m.buf[(m.head+i)%len(m.buf)]
			m.remove(i)
			return out
		}
		m.wantSrc, m.wantTag = src, tag
		p.park(blockedRecv)
	}
}

// find returns the arrival index (0 = oldest) of the first pending message
// matching (src, tag), or -1.
func (m *mailbox) find(src int, tag Tag) int {
	for i := 0; i < m.count; i++ {
		msg := &m.buf[(m.head+i)%len(m.buf)]
		if (src == AnySrc || msg.Src == src) && (tag == AnyTag || msg.Tag == tag) {
			return i
		}
	}
	return -1
}

// remove deletes the i-th pending message (0 = oldest), preserving the
// order of the rest. The common case — matching the oldest message — is a
// head advance; otherwise the messages older than i shift up by one slot.
// The vacated slot is zeroed so the ring does not pin payload slices.
func (m *mailbox) remove(i int) {
	n := len(m.buf)
	for j := i; j > 0; j-- {
		m.buf[(m.head+j)%n] = m.buf[(m.head+j-1)%n]
	}
	m.buf[m.head] = Msg{}
	m.head = (m.head + 1) % n
	m.count--
}

// waitingFor describes the blocked receive, if any, for diagnostics.
func (m *mailbox) waitingFor() string {
	if m.blocked != blockedRecv {
		return ""
	}
	src := "any"
	if m.wantSrc != AnySrc {
		src = fmt.Sprintf("%d", m.wantSrc)
	}
	tag := "any"
	if m.wantTag != AnyTag {
		tag = fmt.Sprintf("%d", int(m.wantTag))
	}
	return fmt.Sprintf("(src=%s, tag=%s) with %d pending", src, tag, m.count)
}
