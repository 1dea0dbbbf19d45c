// Package mp is the message-passing (MPI-style) programming-model runtime:
// two-sided point-to-point communication with tag matching, plus the
// collectives the programs call: a sum allreduce, an allgather and an
// all-to-all exchange.
//
// Semantics follow the MPI subset that the paper's MP codes use:
//
//   - Send is buffered (eager): the sender pays the software overhead and the
//     copy into a system buffer, then proceeds; the matching Recv cannot
//     complete, in virtual time, before the data could have crossed the wire.
//   - Messages between a (src, dst, tag) triple are delivered FIFO.
//   - Collectives synchronize all ranks and merge their virtual clocks.
//
// Costs: each point-to-point operation charges the per-message software
// overhead (MPSendOvNS / MPRecvOvNS), a per-byte stack cost (copies), and the
// wire time for the hop distance between the two processors' nodes. This is
// the familiar high-alpha/moderate-beta profile that makes fine-grained
// irregular communication expensive under MP — the effect the paper measures.
package mp

import (
	"fmt"
	"sync"
	"unsafe"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// message is one in-flight point-to-point transfer.
type message struct {
	src, tag int
	data     any // a copied slice of the element type
	elems    int
	bytes    int
	availAt  sim.Time // earliest virtual time the payload can be delivered
}

// mailbox is one rank's pending-message queue with tag matching. A blocking
// receive suspends its processor on a sim.Cond, so the scheduler goroutine
// that runs every rank is never blocked itself.
type mailbox struct {
	mu   sync.Mutex
	cond sim.Cond
	q    []*message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond.Kind = "mp recv"
	return mb
}

func (mb *mailbox) put(m *message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// take suspends p until a message from src with tag is queued and removes
// the first match (FIFO per (src, tag)).
func (mb *mailbox) take(p *sim.Proc, src, tag int) *message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.q {
			if m.src == src && m.tag == tag {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m
			}
		}
		mb.cond.Wait(p, &mb.mu)
	}
}

// World is the communication context shared by all ranks of one MP program —
// the analogue of MPI_COMM_WORLD.
type World struct {
	M         *machine.Machine
	mailboxes []*mailbox
	reducer   *sim.Reducer
}

// NewWorld creates the context for all processors of m.
func NewWorld(m *machine.Machine) *World {
	n := m.Procs()
	w := &World{M: m, mailboxes: make([]*mailbox, n)}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	stages := m.LogStages(n)
	w.reducer = sim.NewReducer(n, func(int) sim.Time {
		return sim.Time(stages) * m.Cfg.MPBarrierHop
	})
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.mailboxes) }

// Rank binds processor p to the world, yielding its per-rank handle. The
// rank number is the processor ID; use RankAs when they differ.
func (w *World) Rank(p *sim.Proc) *Rank {
	return w.RankAs(p, p.ID())
}

// RankAs binds processor p to the world under an explicit rank number —
// needed by hybrid programs where one processor per node acts as that
// node's MP process.
func (w *World) RankAs(p *sim.Proc, rank int) *Rank {
	if rank < 0 || rank >= w.Size() {
		panic(fmt.Sprintf("mp: rank %d outside world of size %d", rank, w.Size()))
	}
	return &Rank{W: w, P: p, id: rank}
}

// Rank is one process of the MP program: a processor plus its world.
type Rank struct {
	W  *World
	P  *sim.Proc
	id int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.W.Size() }

// sendCost charges the sender-side costs (to the processor's current phase,
// so communication performed inside an application phase is attributed to
// that phase) and returns the delivery time.
func (r *Rank) sendCost(dst, bytes int) sim.Time {
	cfg := &r.W.M.Cfg
	r.P.Advance(cfg.MPSendOvNS + sim.Time(bytes)*cfg.MPPerByteNS)
	wire := r.W.M.Wire(bytes, r.W.M.Hops(r.ID(), dst))
	if wire < cfg.MPMinWireNS {
		wire = cfg.MPMinWireNS
	}
	r.P.BytesSent += uint64(bytes)
	r.P.MsgsSent++
	return r.P.Now() + wire
}

// recvCost charges the receiver-side costs given the message's delivery
// time, attributed to the current phase.
func (r *Rank) recvCost(m *message) {
	cfg := &r.W.M.Cfg
	r.P.AdvanceTo(m.availAt)
	r.P.Advance(cfg.MPRecvOvNS + sim.Time(m.bytes)*cfg.MPPerByteNS)
}

// Send transmits a copy of data to dst with the given tag and returns once
// the send buffer is reusable (buffered semantics).
func Send[T any](r *Rank, dst, tag int, data []T) {
	if dst == r.ID() {
		panic("mp: send to self; use local copy")
	}
	cp := make([]T, len(data))
	copy(cp, data)
	bytes := byteLen(data)
	avail := r.sendCost(dst, bytes)
	r.W.mailboxes[dst].put(&message{src: r.ID(), tag: tag, data: cp, elems: len(cp), bytes: bytes, availAt: avail})
}

// Recv blocks until a message from src with tag arrives and returns its
// payload. The rank's clock advances to the delivery time plus receive
// overhead.
func Recv[T any](r *Rank, src, tag int) []T {
	m := r.W.mailboxes[r.ID()].take(r.P, src, tag)
	data, ok := m.data.([]T)
	if !ok {
		panic(fmt.Sprintf("mp: type mismatch receiving from %d tag %d: have %T", src, tag, m.data))
	}
	r.recvCost(m)
	return data
}

func byteLen[T any](s []T) int {
	var z T
	return len(s) * int(unsafe.Sizeof(z))
}
