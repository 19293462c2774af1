// Package receiver implements the H-RMC receiver of Figure 9 as a
// sans-I/O state machine: the Main Packet Processor (reassembly, gap
// detection, rate requests), the NAK Manager with local NAK suppression,
// the Update Generator with its dynamic period, and the Application
// Interface.
//
// The machine is driven from outside: the owner feeds packets with
// HandlePacket, advances timers with Advance, reads the stream with Read,
// and drains queued feedback packets with Outgoing. All feedback is
// unicast to the sender. The same code runs under the discrete-event
// simulator and the live UDP transport.
//
// Every period and floor the paper counts in 10 ms jiffies is counted
// here in grains (Config.Grain), which default to the jiffy.
//
// Wire-field conventions (see the packet package): UPDATE, CONTROL and
// JOIN carry the receiver's next expected sequence number (rcv_nxt) in
// the Seq field. NAK carries the first missing sequence number in Seq,
// the count of consecutive missing packets in Length, and — because the
// rate-advertisement field is meaningless from receiver to sender — the
// receiver's rcv_nxt in RateAdv, so every feedback packet updates the
// sender's membership state as Section 3 of the paper requires.
package receiver

import (
	"errors"
	"io"

	"repro/internal/fec"
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/repair"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/window"
)

// Mode selects the protocol variant.
type Mode int

const (
	// HRMC is the full hybrid protocol: periodic updates and probe
	// responses.
	HRMC Mode = iota
	// RMC is the original pure NAK-based protocol: no updates, probes
	// are ignored.
	RMC
)

func (m Mode) String() string {
	if m == RMC {
		return "RMC"
	}
	return "H-RMC"
}

// Config parametrizes a receiver.
type Config struct {
	// LocalAddr identifies this receiver; the sender keeps it as the
	// member's unicast address.
	LocalAddr packet.NodeID
	// LocalPort and RemotePort fill the port fields of feedback packets.
	LocalPort, RemotePort uint16
	// RcvBuf is the per-socket kernel receive buffer in bytes; the
	// receive window holds RcvBuf/(MSS+header) packets.
	RcvBuf int
	// MSS is the data payload size per packet.
	MSS int
	// Mode selects H-RMC or the RMC baseline.
	Mode Mode
	// InitialSeq is the first sequence number of the stream, agreed at
	// session setup (the simulator and the live transport both configure
	// it on all parties).
	InitialSeq seqspace.Seq

	// Grain is the clock grain the paper's jiffy-denominated constants
	// are counted in: the update period defaults and its one-grain
	// adjustment step, NAK and JOIN retry, the two-grain RTT floor, the
	// warning-request throttle and the local-recovery repair delay. Zero
	// means kernel.Jiffy, the paper's clock.
	Grain sim.Time
	// InitialUpdatePeriod is the Update Generator's starting period; the
	// paper uses 50 jiffies (0.5 s). Zero means 50 grains.
	InitialUpdatePeriod sim.Time
	// MinUpdatePeriod and MaxUpdatePeriod bound the dynamic adjustment;
	// zero means 1 and 500 grains.
	MinUpdatePeriod, MaxUpdatePeriod sim.Time
	// NakRetryInterval is the NAK Manager's base resend interval for
	// pending NAKs (local NAK suppression window); retries back off
	// linearly with the try count. Zero means 4 grains.
	NakRetryInterval sim.Time
	// AssumedRTT seeds the round-trip estimate used by the WARNBUF rule
	// and urgent-request throttling until the JOIN exchange measures one.
	// It is floored at two grains.
	AssumedRTT sim.Time
	// WarnBuf is the number of round-trip times of sending the warning
	// rule looks ahead; the paper sets 4.
	WarnBuf int

	// LocalRecovery enables the local-recovery extension (Section 7,
	// item 3): NAKs are multicast to the whole group with SRM-style
	// suppression, and receivers holding the requested data answer with
	// multicast repairs after a randomized delay, offloading
	// retransmission work from the sender.
	LocalRecovery bool
	// RecoverySeed seeds the randomized repair/suppression timers;
	// zero derives one from LocalAddr.
	RecoverySeed uint64

	// FECGroupSize mirrors the sender's FEC extension setting. When
	// positive, the first NAK for a fresh gap is deferred long enough
	// for the group's parity packet to arrive and repair single losses
	// locally, so FEC actually removes NAK round trips instead of merely
	// racing them.
	FECGroupSize int

	// RecyclePackets makes the receiver return retained data packets to
	// the shared pool (packet.Put) once the application consumes them —
	// the zero-copy hold-until-release path. Enable only when every
	// packet fed to HandlePacket/HandleFrom is pool-owned (the
	// session's batched receive loop guarantees this). The FEC/local-
	// recovery group cache holds its own pool references, so recycling
	// stays on under FEC.
	RecyclePackets bool

	// RetryLeave retries an unanswered LEAVE, backing off from 50 grains,
	// up to maxLeaveRetries times. The paper's receiver sends its LEAVE
	// once, so a lost LEAVE leaves the handshake (and Done) open forever;
	// live drivers that wait on Done enable it (the session does).
	RetryLeave bool
	// ProgressUpdates clocks feedback by delivery instead of by the
	// Update Generator alone: a flat H-RMC receiver (not RMC, not a
	// repair head or leaf) also sends an UPDATE when its in-order
	// frontier has advanced a quarter of the receive window since the
	// last value it reported, and when a KEEPALIVE arrives while it
	// holds in-order data it has not reported. A sender with a known
	// population then frees its window one round trip after delivery
	// instead of at the MINBUF deadline. Off is the paper's receiver;
	// live drivers enable it (the session does).
	ProgressUpdates bool

	// Head makes this receiver a repair head (hierarchical recovery
	// extension): it tracks downstream members, answers their HEAD_NAKs
	// from a retained window, and reports one aggregated UPDATE to the
	// sender instead of per-member feedback. Head mode implies HRMC and
	// disables local recovery (the repair tier subsumes it).
	Head *repair.Config
	// RepairHead, when nonzero, makes this receiver a downstream member
	// (leaf) of the given repair head: JOIN/UPDATE/LEAVE feedback and
	// retransmission requests (as HEAD_NAK) are addressed to the head
	// instead of the sender. Flow-control CONTROL packets still go to
	// the sender — rate control stays end-to-end. Ignored when Head is
	// set (a head reports straight to the sender).
	RepairHead packet.NodeID
	// HeadNakRetryBudget (leaf mode) is how many NAK retries one missing
	// packet may burn, unanswered by any head traffic, before the leaf
	// declares the head dead and fails over to flat mode. Zero means
	// DefaultHeadNakRetryBudget; negative disables the budget.
	HeadNakRetryBudget int
	// HeadSilenceTimeout (leaf mode) declares the head dead when a
	// response-expecting request (JOIN, HEAD_NAK, LEAVE) has been
	// outstanding this long with no traffic from the head at all. Zero
	// means DefaultHeadSilenceTimeout; negative disables the timer.
	HeadSilenceTimeout sim.Time
	// ReadoptHead re-attaches a failed-over leaf to its configured head
	// when the head's traffic reappears (a restarted head).
	ReadoptHead bool
	// JoinInProgress admits this receiver to a stream already flowing:
	// instead of NAKing the whole history back to InitialSeq, the
	// receive window is rebased to the first position the receiver can
	// anchor to (the first data packet seen, or one past a
	// PROBE/KEEPALIVE sequence number) and delivery starts there. Used
	// by restarted repair heads and late (flash-crowd) joiners.
	JoinInProgress bool

	// Stats receives counters; nil allocates a private set.
	Stats *stats.Receiver
	// Trace receives protocol events; nil disables tracing.
	Trace trace.Sink
}

func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.RcvBuf <= 0 {
		c.RcvBuf = 64 << 10
	}
	if c.Grain <= 0 {
		c.Grain = kernel.Jiffy
	}
	if c.InitialUpdatePeriod <= 0 {
		c.InitialUpdatePeriod = 50 * c.Grain
	}
	if c.MinUpdatePeriod <= 0 {
		c.MinUpdatePeriod = c.Grain
	}
	if c.MaxUpdatePeriod <= 0 {
		c.MaxUpdatePeriod = 500 * c.Grain
	}
	if c.NakRetryInterval <= 0 {
		c.NakRetryInterval = 4 * c.Grain
	}
	if c.AssumedRTT < 2*c.Grain {
		c.AssumedRTT = 2 * c.Grain // clock-grain measurement floor
	}
	if c.WarnBuf <= 0 {
		c.WarnBuf = 4
	}
	if c.Head != nil {
		// The repair tier subsumes peer-based local recovery, and a head
		// reports straight to the sender.
		c.LocalRecovery = false
		c.RepairHead = 0
	}
	if c.RepairHead != 0 {
		c.LocalRecovery = false
	}
	if c.HeadNakRetryBudget == 0 {
		c.HeadNakRetryBudget = DefaultHeadNakRetryBudget
	}
	if c.HeadSilenceTimeout == 0 {
		c.HeadSilenceTimeout = DefaultHeadSilenceTimeout
	}
	if c.Stats == nil {
		c.Stats = &stats.Receiver{}
	}
}

// Leaf-failover defaults for Config fields left zero. The silence
// timeout must stay well below the sender's own head-eviction timeout
// so stranded leaves re-home (and re-gate releases) before the sender
// forgets their evicted head.
const (
	DefaultHeadNakRetryBudget = 6
	DefaultHeadSilenceTimeout = 2 * sim.Second
)

// nakEntry tracks one pending missing packet for the NAK Manager.
type nakEntry struct {
	lastSent sim.Time
	tries    int
	// detected is when the gap first appeared, for the GapFilled
	// recovery-latency trace event.
	detected sim.Time
	// deferUntil suppresses the first NAK until the given time (FEC
	// extension: give the parity packet a chance to repair the gap).
	deferUntil sim.Time
	// direct routes this entry's NAKs straight to the sender even while
	// attached to a repair head — set when the head declined the range
	// (HEAD_DECLINE): re-asking the head cannot help.
	direct bool
}

// Receiver is the H-RMC receiver state machine. Not safe for concurrent
// use; drivers serialize access.
type Receiver struct {
	cfg Config
	wnd *window.ReceiveWindow
	st  *stats.Receiver

	out kernel.Queue // queued feedback packets (all unicast to sender)

	// NAK Manager state: one entry per missing sequence number.
	pending  map[seqspace.Seq]*nakEntry
	nakTimer kernel.Timer

	// Update Generator state.
	updateTimer   kernel.Timer
	updatePeriod  sim.Time
	probesInPer   int  // probes received during the current period
	feedbackInPer bool // other reverse traffic sent during the period
	// lastReported is the in-order frontier the last UPDATE carried
	// (Config.ProgressUpdates measures progress from it).
	lastReported seqspace.Seq

	// JOIN handshake. The JOIN is retried until JOIN_RESPONSE arrives:
	// membership is load-bearing in H-RMC (the sender holds releases for
	// expected receivers), so the handshake must survive loss.
	joined        bool // JOIN sent at least once
	joinTime      sim.Time
	joinTimer     kernel.Timer
	joinAmbiguous bool // JOIN was retransmitted: RTT sample is unusable
	joinAcked     bool
	rttEstimate   sim.Time
	lastControl   sim.Time // throttle for warning rate requests
	lastUrgent    sim.Time // throttle for urgent rate requests
	seenAnyData   bool
	finDelivered  bool
	leaveSent     bool
	leaveAcked    bool
	// leaveTimer retries an unanswered LEAVE (Config.RetryLeave);
	// leaveTries counts the retries.
	leaveTimer kernel.Timer
	leaveTries int

	advRate uint32 // last rate advertisement heard from the sender

	// fecCache retains recently received packets so parity can repair a
	// loss even after earlier group members were consumed by the
	// application (bounded to a few FEC groups; the kernel analogue is
	// holding a handful of sk_buffs past delivery). When fecPooled, the
	// cache holds its own pool reference per entry (Retain on insert,
	// Put on prune), which is what lets receive-window recycling stay on
	// under FEC; otherwise entries are plain aliases and nothing
	// recycles them.
	fecCache  map[seqspace.Seq]*packet.Packet
	fecPooled bool
	// fdec reuses one XOR scratch buffer across parity recoveries.
	fdec fec.Decoder

	// Local-recovery state.
	outMC         kernel.Queue // multicast feedback/repairs
	repairPending map[seqspace.Seq]sim.Time
	repairTimer   kernel.Timer
	rng           *sim.RNG

	// Repair tier (hierarchical recovery extension): head is the repair-
	// head state machine when this receiver serves a subtree; outAddr
	// queues repair-plane unicast packets (leaf→head feedback, head→leaf
	// responses) with explicit destinations.
	head    *repair.Head
	outAddr []Addressed

	// Repair-head failover state (leaf mode). headDown is set when the
	// configured head has been declared dead and the leaf has degraded
	// to flat mode; headWaitSince is when the oldest still-unanswered
	// head-bound request went out (zero = nothing outstanding) — the
	// head-silence clock.
	headDown      bool
	headWaitSince sim.Time
	// rebased records the JoinInProgress anchor point (mid-stream join).
	rebased   bool
	rebasedTo seqspace.Seq
	// drainStart is when a departing head began waiting for its subtree
	// to drain (deferred LEAVE); bounded by the head's LeaveDrainTimeout.
	drainStart sim.Time
	// dead marks sequence numbers the sender refused with NAK_ERR:
	// released end-to-end, unrecoverable. The NAK manager stops asking;
	// the hole stays visible as a stream that never advances past it.
	dead map[seqspace.Seq]bool
}

// Addressed is one outgoing packet with an explicit unicast destination
// on the repair plane (leaf↔head traffic, which the flat feedback path —
// everything unicast to the sender — cannot express).
type Addressed struct {
	Pkt *packet.Packet
	To  packet.NodeID
}

// ErrNotData is returned by HandlePacket for sender-bound packet types.
var ErrNotData = errors.New("receiver: packet type is sender-bound")

// New creates a receiver. The update timer starts armed so that a
// receiver in a silent group still reports state.
func New(cfg Config) *Receiver {
	cfg.sanitize()
	wndPackets := uint32(cfg.RcvBuf / (cfg.MSS + packet.HeaderSize))
	if wndPackets == 0 {
		wndPackets = 1
	}
	r := &Receiver{
		cfg:          cfg,
		wnd:          window.NewReceiveWindow(wndPackets, cfg.InitialSeq),
		st:           cfg.Stats,
		pending:      make(map[seqspace.Seq]*nakEntry),
		updatePeriod: cfg.InitialUpdatePeriod,
		rttEstimate:  cfg.AssumedRTT,
		lastReported: cfg.InitialSeq,
	}
	if cfg.Mode == HRMC && cfg.Head == nil {
		// A repair head replaces the per-receiver Update Generator with
		// the aggregate timer inside the head machine.
		r.updateTimer.Arm(sim.Time(cfg.InitialUpdatePeriod))
	}
	if cfg.FECGroupSize > 0 || cfg.LocalRecovery {
		r.fecCache = make(map[seqspace.Seq]*packet.Packet)
		r.fecPooled = cfg.RecyclePackets
	}
	if cfg.RecyclePackets {
		r.wnd.SetRecycle(true)
	}
	if cfg.Head != nil {
		hc := *cfg.Head
		if hc.Grain <= 0 {
			hc.Grain = cfg.Grain
		}
		// The head's retained window must outlast the receive window so
		// an evicted packet is always one the application (and hence the
		// subtree front, which the aggregate clamps releases to) is past.
		if hc.WindowPackets < 2*int(wndPackets) {
			hc.WindowPackets = 2 * int(wndPackets)
		}
		r.head = repair.NewHead(0, hc, cfg.RecyclePackets, r.st)
	}
	if cfg.LocalRecovery {
		seed := cfg.RecoverySeed
		if seed == 0 {
			seed = uint64(cfg.LocalAddr) + 0x10CA1
		}
		r.rng = sim.NewRNG(seed)
		r.repairPending = make(map[seqspace.Seq]sim.Time)
	}
	return r
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() *stats.Receiver { return r.st }

// WindowSize returns the receive window size in packets.
func (r *Receiver) WindowSize() uint32 { return r.wnd.Size() }

// UpdatePeriod returns the Update Generator's current period.
func (r *Receiver) UpdatePeriod() sim.Time { return r.updatePeriod }

// RTT returns the receiver's current round-trip estimate.
func (r *Receiver) RTT() sim.Time { return r.rttEstimate }

// NextExpected returns rcv_nxt.
func (r *Receiver) NextExpected() seqspace.Seq { return r.wnd.Next() }

// Done reports whether the stream has been fully delivered to the
// application and the LEAVE handshake has completed.
func (r *Receiver) Done() bool { return r.finDelivered && r.leaveAcked }

// FinDelivered reports whether the application has consumed the whole
// stream.
func (r *Receiver) FinDelivered() bool { return r.finDelivered }

// Outgoing drains the queued feedback packets, in order. Every packet is
// destined for the sender's unicast address.
func (r *Receiver) Outgoing() []*packet.Packet { return r.out.Drain() }

// OutgoingMulticast drains packets destined for the whole group
// (multicast NAKs and repairs under the local-recovery extension, and a
// head's repairs into its subtree).
func (r *Receiver) OutgoingMulticast() []*packet.Packet { return r.outMC.Drain() }

// OutgoingAddressed drains repair-plane unicast packets, each with its
// explicit destination (leaf→head feedback, head→leaf responses).
func (r *Receiver) OutgoingAddressed() []Addressed {
	out := r.outAddr
	r.outAddr = nil
	return out
}

// HasOutgoing reports whether feedback is queued.
func (r *Receiver) HasOutgoing() bool {
	return r.out.Len() > 0 || r.outMC.Len() > 0 || len(r.outAddr) > 0
}

// reportedNext is the next-expected sequence number this receiver
// reports upstream. A repair head speaks for its subtree: every packet
// that updates the sender's membership state carries the aggregate
// minimum, never the head's own frontier — otherwise the sender could
// release data a downstream member still needs.
func (r *Receiver) reportedNext() seqspace.Seq {
	if r.head != nil {
		return r.head.ClampNext(r.wnd.Next())
	}
	return r.wnd.Next()
}

// leafHead returns the repair head this receiver currently addresses:
// the configured head in leaf mode, or zero once the leaf has failed
// over to flat mode (or was never a leaf).
func (r *Receiver) leafHead() packet.NodeID {
	if r.headDown {
		return 0
	}
	return r.cfg.RepairHead
}

// noteHeadWait starts the head-silence clock when a response-expecting
// packet goes to the head and nothing is already outstanding. Zero
// means "no request outstanding", so a request at exactly t=0 is
// recorded one tick late rather than not at all.
func (r *Receiver) noteHeadWait(now sim.Time) {
	if r.leafHead() != 0 && r.headWaitSince == 0 {
		if now == 0 {
			now = 1
		}
		r.headWaitSince = now
	}
}

// onHeadTraffic feeds the head-liveness tracker: any packet from the
// configured head proves it alive.
func (r *Receiver) onHeadTraffic(now sim.Time) {
	if r.headDown {
		if r.cfg.ReadoptHead {
			r.readoptHead(now)
		}
		return
	}
	r.headWaitSince = 0
}

// emitNak routes a retransmission request: to the repair head as a
// HEAD_NAK in leaf mode (unless the entry was re-homed by a decline —
// direct), multicast under local recovery (so peers can repair and
// suppress), unicast to the sender otherwise.
func (r *Receiver) emitNak(now sim.Time, p *packet.Packet, direct bool) {
	if h := r.leafHead(); h != 0 && !direct {
		p.Type = packet.TypeHeadNak
		r.emitTo(p, h)
		r.noteHeadWait(now)
		return
	}
	if r.cfg.LocalRecovery {
		p.SrcPort = r.cfg.LocalPort
		p.DstPort = r.cfg.RemotePort
		r.outMC.Push(p)
		return
	}
	r.emit(p)
}

func (r *Receiver) emit(p *packet.Packet) {
	if h := r.leafHead(); h != 0 {
		// Leaf mode: membership feedback belongs to the repair head, not
		// the sender. CONTROL (rate requests) and everything else stays
		// end-to-end.
		switch p.Type {
		case packet.TypeJoin, packet.TypeUpdate, packet.TypeLeave:
			r.emitTo(p, h)
			return
		}
	}
	p.SrcPort = r.cfg.LocalPort
	p.DstPort = r.cfg.RemotePort
	r.out.Push(p)
}

// emitTo queues a repair-plane unicast packet. Both ends of the repair
// plane listen on the group's receiver port, so DstPort is LocalPort —
// not the sender's port.
func (r *Receiver) emitTo(p *packet.Packet, to packet.NodeID) {
	p.SrcPort = r.cfg.LocalPort
	p.DstPort = r.cfg.LocalPort
	r.outAddr = append(r.outAddr, Addressed{Pkt: p, To: to})
}

// HandlePacket processes one packet from the sender. It corresponds to
// hrmc_master_rcv on the receive path.
func (r *Receiver) HandlePacket(now sim.Time, p *packet.Packet) error {
	_, err := r.HandleFrom(now, 0, p)
	return err
}

// HandleFrom is HandlePacket with the source's unicast address, which
// a repair head needs to attribute downstream feedback (JOIN, UPDATE,
// LEAVE, HEAD_NAK). from may be zero when unknown; member feedback is
// then rejected. It also reports whether the machine retained p
// (stored it in the receive window, to be released when the
// application consumes it). When retained is false the caller still
// owns p and should release it (packet.Put); when true, ownership
// transferred to the machine.
func (r *Receiver) HandleFrom(now sim.Time, from packet.NodeID, p *packet.Packet) (retained bool, err error) {
	if r.cfg.RepairHead != 0 && from != 0 && from == r.cfg.RepairHead {
		r.onHeadTraffic(now)
	}
	// An unconfigured RemotePort is learned from the sender's source
	// port, the way a connected socket learns its peer — only from
	// sender-originated types, so a peer's multicast NAK (local
	// recovery) can never hijack the feedback address. In leaf mode the
	// JOIN/LEAVE responses come from the repair head, not the sender,
	// so they are excluded there (until a failover re-homes the
	// handshake to the sender).
	if r.cfg.RemotePort == 0 && p.SrcPort != 0 {
		switch p.Type {
		case packet.TypeData, packet.TypeKeepalive, packet.TypeProbe,
			packet.TypeFec, packet.TypeNakErr:
			r.cfg.RemotePort = p.SrcPort
		case packet.TypeJoinResponse, packet.TypeLeaveResponse:
			if r.leafHead() == 0 {
				r.cfg.RemotePort = p.SrcPort
			}
		}
	}
	switch p.Type {
	case packet.TypeData:
		retained = r.onData(now, p)
	case packet.TypeKeepalive:
		r.onKeepalive(now, p)
	case packet.TypeProbe:
		r.onProbe(now, p)
	case packet.TypeJoinResponse:
		r.onJoinResponse(now, from)
	case packet.TypeLeaveResponse:
		// Only a LEAVE this receiver actually has in flight can be acked;
		// responses to the auxiliary LEAVEs a re-adoption sends (retiring
		// a direct sender membership) must not complete the handshake.
		if r.leaveSent {
			r.leaveAcked = true
			r.leaveTimer.Disarm()
		}
	case packet.TypeNak:
		if !r.cfg.LocalRecovery {
			return false, ErrNotData
		}
		r.onPeerNak(now, p)
	case packet.TypeFec:
		// Recovery copies the parity payload (fec.Recover builds a fresh
		// rebuilt packet), so the parity packet itself is never retained.
		r.onFec(now, p)
	case packet.TypeNakErr:
		r.onNakErr(now, p)
	case packet.TypeHeadDecline:
		r.onHeadDecline(now, from, p)
	case packet.TypeJoin:
		if r.head == nil || from == 0 {
			return false, ErrNotData
		}
		r.onMemberJoin(now, from, p)
	case packet.TypeUpdate:
		if r.head == nil || from == 0 {
			return false, ErrNotData
		}
		r.head.Update(now, from, seqspace.Seq(p.Seq))
	case packet.TypeLeave:
		if r.head == nil || from == 0 {
			return false, ErrNotData
		}
		r.onMemberLeave(now, from, p)
	case packet.TypeHeadNak:
		if r.head == nil || from == 0 {
			return false, ErrNotData
		}
		r.onHeadNak(now, from, p)
	default:
		return false, ErrNotData
	}
	return retained, nil
}

// onMemberJoin registers a downstream member (head mode) and answers
// with the same JOIN_RESPONSE handshake the sender gives heads, so the
// leaf's JOIN retry loop and RTT estimate work unchanged.
func (r *Receiver) onMemberJoin(now sim.Time, from packet.NodeID, p *packet.Packet) {
	r.head.Join(now, from, seqspace.Seq(p.Seq))
	r.emitTo(&packet.Packet{Header: packet.Header{
		Type: packet.TypeJoinResponse,
		Seq:  p.Seq,
	}}, from)
}

// onMemberLeave removes a downstream member (head mode) and confirms
// with LEAVE_RESPONSE.
func (r *Receiver) onMemberLeave(now sim.Time, from packet.NodeID, p *packet.Packet) {
	r.head.Update(now, from, seqspace.Seq(p.Seq))
	r.head.Leave(from)
	r.emitTo(&packet.Packet{Header: packet.Header{
		Type: packet.TypeLeaveResponse,
		Seq:  p.Seq,
	}}, from)
	r.maybeLeave(now)
}

// onHeadNak services a downstream retransmission request (head mode):
// each requested sequence number is answered from the head's retained
// window (or the receive window) with a multicast repair into the
// subtree, suppressed if the same number was served within the
// suppression interval, or escalated to the sender as an ordinary NAK
// when the head does not hold the data either.
func (r *Receiver) onHeadNak(now sim.Time, from packet.NodeID, p *packet.Packet) {
	r.st.HeadNaksReceived++
	// The requester's rcv_nxt rides in RateAdv, like a NAK's.
	r.head.Update(now, from, seqspace.Seq(p.RateAdv))
	first := seqspace.Seq(p.Seq)
	to := first + seqspace.Seq(p.Length)
	if p.Length == 0 {
		to = first + 1
	}
	var escFrom seqspace.Seq
	var escCount uint32
	flushEsc := func() {
		if escCount == 0 {
			return
		}
		trace.Emit(r.cfg.Trace, now, trace.HeadNakEscalated, uint32(escFrom), int64(escCount))
		r.emit(&packet.Packet{Header: packet.Header{
			Type:   packet.TypeNak,
			Seq:    uint32(escFrom),
			Length: escCount,
			// An escalated NAK's timing is multi-hop (leaf -> head ->
			// sender): mark it re-asked so it never feeds the RTT estimate.
			Tries:   1,
			RateAdv: uint32(r.reportedNext()),
		}})
		escCount = 0
	}
	var decFrom seqspace.Seq
	var decCount uint32
	flushDec := func() {
		if decCount == 0 {
			return
		}
		r.sendDecline(now, decFrom, decCount)
		decCount = 0
	}
	for seq := first; seqspace.Before(seq, to); seq++ {
		if r.head.Handled(now, seq) {
			r.st.HeadNaksSuppressed++
			continue
		}
		var payload []byte
		var flags uint8
		if src, ok := r.head.Retained(seq); ok {
			// The FIN flag must survive the repair: a leaf whose lost
			// packet was the stream end can only finish if the rebuilt
			// copy still ends the stream.
			payload, flags = src.Payload, src.Flags&packet.FlagFIN
		} else if wp, ok := r.wnd.PayloadAt(seq); ok {
			payload = wp
		} else if r.head.Declined(now, seq) {
			// The sender already refused this range: re-escalating cannot
			// help, so answer with an explicit decline (coalesced).
			flushEsc()
			if decCount == 0 {
				decFrom = seq
			}
			decCount++
			continue
		} else {
			// Not held here: escalate (coalescing consecutive numbers).
			r.st.HeadNaksEscalated++
			flushDec()
			if escCount == 0 {
				escFrom = seq
			}
			escCount++
			continue
		}
		flushEsc()
		flushDec()
		r.st.HeadNaksAnswered++
		trace.Emit(r.cfg.Trace, now, trace.HeadRepairSent, uint32(seq), int64(len(payload)))
		pl := make([]byte, len(payload))
		copy(pl, payload)
		rep := &packet.Packet{
			Header: packet.Header{
				Type:    packet.TypeData,
				Seq:     uint32(seq),
				Length:  uint32(len(pl)),
				RateAdv: r.advRate,
				Tries:   1, // a repair is by definition a retransmission
				Flags:   flags,
			},
			Payload: pl,
		}
		rep.SrcPort = r.cfg.LocalPort
		rep.DstPort = r.cfg.LocalPort
		r.outMC.Push(rep)
	}
	flushEsc()
	flushDec()
	r.feedbackInPer = true
}

// onNakErr processes an authoritative sender refusal: the requested
// range is below the send window and no longer retransmittable.
func (r *Receiver) onNakErr(now sim.Time, p *packet.Packet) {
	r.st.NakErrsHeard++
	first := seqspace.Seq(p.Seq)
	to := first + seqspace.Seq(p.Length)
	if p.Length == 0 {
		to = first + 1
	}
	if r.head != nil {
		// Head mode, escalate-or-decline: the subtree member that asked
		// must hear an explicit refusal, never silence — record the
		// range and multicast a HEAD_DECLINE so leaves re-home their
		// recovery end-to-end.
		for seq := first; seqspace.Before(seq, to); seq++ {
			r.head.Decline(now, seq)
		}
		r.sendDecline(now, first, seqspace.Count(first, to))
		return
	}
	// Flat (or failed-over leaf): the data is gone for good and retrying
	// cannot help. The NAK manager stops asking; the hole stays visible
	// to the application as a stream that never advances past it.
	for seq := first; seqspace.Before(seq, to); seq++ {
		if _, ok := r.pending[seq]; !ok {
			continue
		}
		if r.dead == nil {
			r.dead = make(map[seqspace.Seq]bool)
		}
		if !r.dead[seq] {
			r.dead[seq] = true
			r.st.UnrecoverableHoles++
		}
		delete(r.pending, seq)
	}
	r.armNakTimer(now)
}

// sendDecline multicasts a HEAD_DECLINE into the subtree (head mode):
// an explicit refusal for [first, first+count), which the sender has
// released and the head cannot serve.
func (r *Receiver) sendDecline(now sim.Time, first seqspace.Seq, count uint32) {
	if count == 0 {
		count = 1
	}
	r.st.HeadDeclinesSent++
	trace.Emit(r.cfg.Trace, now, trace.HeadDeclineSent, uint32(first), int64(count))
	d := &packet.Packet{Header: packet.Header{
		Type:   packet.TypeHeadDecline,
		Seq:    uint32(first),
		Length: count,
	}}
	d.SrcPort = r.cfg.LocalPort
	d.DstPort = r.cfg.LocalPort
	r.outMC.Push(d)
}

// onHeadDecline processes the head's explicit refusal (leaf mode): the
// covered gaps re-home to end-to-end recovery — further NAKs for them
// go straight to the sender.
func (r *Receiver) onHeadDecline(now sim.Time, from packet.NodeID, p *packet.Packet) {
	if r.leafHead() == 0 || from == 0 || from != r.cfg.RepairHead {
		return
	}
	r.st.HeadDeclinesHeard++
	first := seqspace.Seq(p.Seq)
	to := first + seqspace.Seq(p.Length)
	if p.Length == 0 {
		to = first + 1
	}
	changed := false
	for seq := first; seqspace.Before(seq, to); seq++ {
		if e, ok := r.pending[seq]; ok && !e.direct {
			e.direct = true
			e.tries = 0
			e.deferUntil = 0
			changed = true
		}
	}
	if changed {
		r.sendDueNaks(now)
		r.armNakTimer(now)
	}
}

// failover degrades a leaf to flat mode: the configured repair head is
// declared dead, so membership and recovery re-home to the sender.
func (r *Receiver) failover(now sim.Time) {
	if r.leafHead() == 0 {
		return
	}
	r.headDown = true
	r.headWaitSince = 0
	r.st.HeadFailovers++
	trace.Emit(r.cfg.Trace, now, trace.HeadFailover, uint32(r.wnd.Next()), int64(r.cfg.RepairHead))
	if r.joined && !r.finDelivered {
		// Fresh JOIN handshake with the sender. Karn's rule: a sample
		// would mix head and sender round trips, so it is discarded.
		r.joinAcked = false
		r.joinAmbiguous = true
		r.sendJoin(now)
	}
	// Pending recovery restarts cleanly against the sender.
	for _, e := range r.pending {
		e.tries = 0
		e.deferUntil = 0
	}
	if len(r.pending) > 0 {
		r.sendDueNaks(now)
		r.armNakTimer(now)
	}
	if r.leaveSent && !r.leaveAcked {
		// The LEAVE went to the dead head; close membership with the
		// sender directly.
		r.emit(&packet.Packet{Header: packet.Header{
			Type: packet.TypeLeave,
			Seq:  uint32(r.wnd.Next()),
		}})
	}
}

// readoptHead re-attaches a failed-over leaf to its configured head —
// called when head traffic reappears and ReadoptHead is on.
func (r *Receiver) readoptHead(now sim.Time) {
	r.headDown = false
	r.headWaitSince = 0
	r.st.HeadReadoptions++
	trace.Emit(r.cfg.Trace, now, trace.HeadReadopted, uint32(r.wnd.Next()), int64(r.cfg.RepairHead))
	for _, e := range r.pending {
		e.direct = false
	}
	if r.joined && !r.finDelivered {
		// Hand membership back to the head ...
		r.joinAcked = false
		r.joinAmbiguous = true
		r.sendJoin(now)
		// ... and retire the direct sender membership so the sender
		// returns to O(heads) state. Deliberately not routed through
		// emit (which now reroutes LEAVEs to the head) and without
		// touching this leaf's own LEAVE handshake state.
		lv := &packet.Packet{Header: packet.Header{
			Type: packet.TypeLeave,
			Seq:  uint32(r.wnd.Next()),
		}}
		lv.SrcPort = r.cfg.LocalPort
		lv.DstPort = r.cfg.RemotePort
		r.out.Push(lv)
	}
}

// anchor fixes the JoinInProgress rebase point: the receive window is
// moved to seq so a mid-stream joiner delivers from there instead of
// NAKing the whole history.
func (r *Receiver) anchor(seq seqspace.Seq) {
	if r.rebased || !r.cfg.JoinInProgress {
		return
	}
	if !r.wnd.Rebase(seq) {
		// Data already anchored the window; record where it stands.
		r.rebasedTo, r.rebased = r.wnd.Base(), true
	} else {
		r.rebasedTo, r.rebased = seq, true
	}
	// The skipped history is not progress to report.
	r.lastReported = r.rebasedTo
}

// anchorAndJoin anchors at seq and starts the JOIN handshake — the path
// taken when the first thing a mid-stream joiner hears is a KEEPALIVE
// or PROBE rather than data.
func (r *Receiver) anchorAndJoin(now sim.Time, seq seqspace.Seq) {
	r.anchor(seq)
	if !r.joined {
		r.joined = true
		r.joinTime = now
		r.sendJoin(now)
	}
}

// onData reports whether p was stored in the receive window (retained).
func (r *Receiver) onData(now sim.Time, p *packet.Packet) bool {
	r.advRate = p.RateAdv
	firstData := !r.joined
	if !r.seenAnyData {
		// Mid-stream joiner: deliver from the first packet seen.
		r.anchor(seqspace.Seq(p.Seq))
	}
	r.seenAnyData = true
	if r.repairPending != nil {
		// Seeing the data (from anyone) cancels our scheduled repair.
		delete(r.repairPending, seqspace.Seq(p.Seq))
	}
	res := r.wnd.Insert(p)
	if firstData {
		// "send a JOIN message to the sender in response to the first
		// data packet that it receives" — carrying rcv_nxt after the
		// packet has been processed.
		r.joined = true
		r.joinTime = now
		r.sendJoin(now)
	}
	switch res {
	case window.Duplicate:
		r.st.Duplicates++
		return false
	case window.OutOfWindow:
		r.st.OutOfWindow++
		return false
	}
	r.st.DataReceived++
	if r.head != nil {
		// Head role: keep the packet available for downstream repairs
		// past application consumption (a reference when pool-owned, a
		// plain alias otherwise).
		r.head.Retain(p)
	}
	if r.fecCache != nil {
		seq := seqspace.Seq(p.Seq)
		if old, ok := r.fecCache[seq]; ok && r.fecPooled {
			packet.Put(old)
		}
		if r.fecPooled {
			packet.Retain(p)
		}
		r.fecCache[seq] = p
		r.pruneFecCache()
	}
	r.syncNakList(now)
	if r.progressUpdates() &&
		seqspace.Diff(r.wnd.Next(), r.lastReported) >= int32(max(r.wnd.Size()/4, 1)) {
		r.sendProgressUpdate(now)
	}
	r.maybeRateRequest(now)
	return true
}

// syncNakList reconciles the pending NAK list with the window's missing
// set: gaps gain entries (NAKed immediately on first detection), filled
// holes lose them.
func (r *Receiver) syncNakList(now sim.Time) {
	missing := r.wnd.Missing(nil)
	present := make(map[seqspace.Seq]bool, len(r.pending))
	newGap := false
	for _, g := range missing {
		for s := g.From; seqspace.Before(s, g.To); s++ {
			if r.dead[s] {
				// Authoritatively refused (NAK_ERR): never re-request.
				continue
			}
			present[s] = true
			if _, ok := r.pending[s]; !ok {
				e := &nakEntry{detected: now}
				if r.cfg.FECGroupSize > 0 {
					// Give parity a chance before the first NAK. One
					// retry interval bounds the parity's trailing
					// distance comfortably: the sender emits it with the
					// group's last packet or, across a pipeline pause,
					// via the idle flush within a grain or two — any
					// longer wait just adds dead time to the fallback
					// path when the parity itself was lost. An arriving
					// parity that cannot repair the gap expires the
					// defer early (see onFec).
					e.deferUntil = now + r.cfg.NakRetryInterval
				}
				r.pending[s] = e
				if !newGap {
					trace.Emit(r.cfg.Trace, now, trace.GapDetected, uint32(s), 0)
				}
				newGap = true
			}
		}
	}
	for s, e := range r.pending {
		if !present[s] {
			// The gap is gone — filled by retransmission, parity
			// recovery, or a rebase past it. Aux carries the time it
			// stayed open, the recovery-latency a NAK round trip or a
			// parity arrival cost us.
			trace.Emit(r.cfg.Trace, now, trace.GapFilled, uint32(s), int64(now-e.detected))
			delete(r.pending, s)
		}
	}
	if newGap {
		r.sendDueNaks(now)
	}
	r.armNakTimer(now)
}

// sendDueNaks transmits NAKs for pending entries whose suppression
// window has expired, coalescing consecutive sequence numbers into one
// NAK packet.
func (r *Receiver) sendDueNaks(now sim.Time) {
	gaps := r.wnd.Missing(nil)
	sent := false
	exhausted := false
	for _, g := range gaps {
		var from seqspace.Seq
		var count uint32
		var runDirect, runRetry bool
		flushRun := func() {
			if count == 0 {
				return
			}
			sent = true
			// Tries marks a re-asked NAK: the sender must not take an RTT
			// sample from it, since the elapsed time includes our backoff.
			var tries uint8
			if runRetry {
				tries = 1
			}
			trace.Emit(r.cfg.Trace, now, trace.NakSent, uint32(from), int64(count))
			r.emitNak(now, &packet.Packet{Header: packet.Header{
				Type:    packet.TypeNak,
				Seq:     uint32(from),
				Length:  count,
				Tries:   tries,
				RateAdv: uint32(r.reportedNext()),
			}}, runDirect)
			count = 0
			runRetry = false
		}
		for s := g.From; seqspace.Before(s, g.To); s++ {
			e := r.pending[s]
			if e == nil {
				flushRun()
				continue
			}
			due := e.tries == 0 || now-e.lastSent >= r.retryInterval(e)
			if now < e.deferUntil {
				due = false
			}
			if !due {
				flushRun()
				continue
			}
			retry := e.tries != 0
			if retry {
				r.st.NakRetries++
			} else {
				r.st.NaksSent++
				if e.deferUntil != 0 {
					// The FEC defer window expired with the gap still
					// open: parity did not repair it, so this NAK is the
					// selective fallback to retransmission.
					r.st.FecFallbackNaks++
				}
			}
			e.lastSent = now
			e.tries++
			if r.leafHead() != 0 && !e.direct &&
				r.cfg.HeadNakRetryBudget > 0 && e.tries > r.cfg.HeadNakRetryBudget {
				exhausted = true
			}
			if count > 0 && e.direct != runDirect {
				// Head-bound and direct entries cannot share one NAK.
				flushRun()
			}
			if count == 0 {
				from, runDirect = s, e.direct
			}
			if retry {
				runRetry = true
			}
			count++
		}
		flushRun()
	}
	if sent {
		r.feedbackInPer = true
	}
	if exhausted {
		// The head absorbed a full retry budget without a sign of life.
		r.failover(now)
	}
}

// retryInterval computes the backoff before a pending NAK is resent:
// linear in flat mode (the local NAK-suppression window), exponential
// toward a repair head so a dead head is detected within the retry
// budget without flooding it first.
func (r *Receiver) retryInterval(e *nakEntry) sim.Time {
	if r.leafHead() != 0 && !e.direct {
		shift := e.tries - 1
		if shift < 0 {
			shift = 0
		}
		if shift > 6 {
			shift = 6
		}
		return r.cfg.NakRetryInterval << uint(shift)
	}
	return r.cfg.NakRetryInterval * sim.Time(e.tries+1)
}

// armNakTimer schedules the NAK Manager for the earliest pending retry.
func (r *Receiver) armNakTimer(now sim.Time) {
	if len(r.pending) == 0 {
		r.nakTimer.Disarm()
		return
	}
	var earliest sim.Time
	first := true
	for _, e := range r.pending {
		var at sim.Time
		if e.tries == 0 {
			at = now
		} else {
			at = e.lastSent + r.retryInterval(e)
		}
		if at < e.deferUntil {
			at = e.deferUntil
		}
		if first || at < earliest {
			earliest, first = at, false
		}
	}
	if earliest < now {
		earliest = now
	}
	r.nakTimer.Arm(earliest)
}

// maybeRateRequest applies the three flow-control rules of Section 2 on
// each accepted data packet.
func (r *Receiver) maybeRateRequest(now sim.Time) {
	if pm := int64(r.wnd.Fill()) * 1000 / int64(r.wnd.Size()); pm > r.st.MaxFillPermille {
		r.st.MaxFillPermille = pm
	}
	switch r.wnd.Region() {
	case window.Safe:
		return
	case window.Warning:
		// Rule 2: request a lower rate if the data sendable at the
		// advertised rate over the next WARNBUF round trips exceeds the
		// empty portion of the window.
		horizon := sim.Time(r.cfg.WarnBuf) * r.rttEstimate
		sendable := float64(r.advRate) * horizon.Seconds()
		emptyBytes := float64(r.wnd.Empty()) * float64(r.cfg.MSS)
		if sendable <= emptyBytes {
			return
		}
		// Rate requests are deliberately not suppressed (Section 5.2);
		// only the kernel's timer granularity bounds them.
		if now-r.lastControl < r.cfg.Grain && r.lastControl != 0 {
			return
		}
		r.lastControl = now
		r.st.RateRequests++
		trace.Emit(r.cfg.Trace, now, trace.RegionWarning, uint32(r.wnd.Next()), int64(r.wnd.Fill()))
		r.emit(&packet.Packet{Header: packet.Header{
			Type:    packet.TypeControl,
			Seq:     uint32(r.reportedNext()),
			RateAdv: r.advRate / 2,
		}})
		r.feedbackInPer = true
	case window.Critical:
		// Rule 3: urgent request, stops the sender for two round trips
		// regardless of the advertised rate. One per two round trips.
		if now-r.lastUrgent < 2*r.rttEstimate && r.lastUrgent != 0 {
			return
		}
		r.lastUrgent = now
		r.st.UrgentRequests++
		trace.Emit(r.cfg.Trace, now, trace.RegionCritical, uint32(r.wnd.Next()), int64(r.wnd.Fill()))
		r.emit(&packet.Packet{Header: packet.Header{
			Type:    packet.TypeControl,
			Seq:     uint32(r.reportedNext()),
			RateAdv: r.advRate / 2,
			Flags:   packet.FlagURG,
		}})
		r.feedbackInPer = true
	}
}

// pruneFecCache bounds the recovery cache to a few FEC groups behind
// the reassembly frontier, dropping the cache's pool reference with
// each evicted entry.
func (r *Receiver) pruneFecCache() {
	limit := 4 * r.cfg.FECGroupSize
	if len(r.fecCache) <= 2*limit {
		return
	}
	for seq, p := range r.fecCache {
		if int(seqspace.Diff(r.wnd.Next(), seq)) > limit {
			if r.fecPooled {
				packet.Put(p)
			}
			delete(r.fecCache, seq)
		}
	}
}

// releaseFecCache drops every cached group member, returning the
// cache's pool references. Called at end of stream and on teardown;
// the map stays usable (straggler data after FIN may repopulate it, so
// teardown drains again).
func (r *Receiver) releaseFecCache() {
	for seq, p := range r.fecCache {
		if r.fecPooled {
			packet.Put(p)
		}
		delete(r.fecCache, seq)
	}
}

// fecLookup resolves payloads (and header flags, which parity also
// covers) for recovery from the window first, then the recovery cache.
func (r *Receiver) fecLookup(seq seqspace.Seq) ([]byte, uint8, bool) {
	if p, ok := r.wnd.PacketAt(seq); ok {
		return p.Payload, p.Flags, true
	}
	if p, ok := r.fecCache[seq]; ok {
		return p.Payload, p.Flags, true
	}
	return nil, 0, false
}

// onPeerNak processes another receiver's multicast NAK (local-recovery
// extension): requests covering our own pending gaps suppress our NAKs
// (SRM-style), and requests for data we hold schedule a randomized
// multicast repair, cancelled if someone else repairs first.
func (r *Receiver) onPeerNak(now sim.Time, p *packet.Packet) {
	r.st.PeerNaksHeard++
	from := seqspace.Seq(p.Seq)
	to := from + seqspace.Seq(p.Length)
	if p.Length == 0 {
		to = from + 1
	}
	for seq := from; seqspace.Before(seq, to); seq++ {
		if e, ok := r.pending[seq]; ok {
			// A peer already asked: count it as our own ask.
			e.lastSent = now
			if e.tries == 0 {
				e.tries = 1
			}
			continue
		}
		if _, scheduled := r.repairPending[seq]; scheduled {
			continue
		}
		if _, _, have := r.fecLookup(seq); have {
			delay := r.cfg.Grain + sim.Time(r.rng.Intn(int(2*r.cfg.Grain)))
			r.repairPending[seq] = now + delay
		}
	}
	r.armNakTimer(now)
	r.armRepairTimer(now)
}

// armRepairTimer schedules the earliest pending repair.
func (r *Receiver) armRepairTimer(now sim.Time) {
	if len(r.repairPending) == 0 {
		r.repairTimer.Disarm()
		return
	}
	var earliest sim.Time
	first := true
	for _, at := range r.repairPending {
		if first || at < earliest {
			earliest, first = at, false
		}
	}
	if earliest < now {
		earliest = now
	}
	r.repairTimer.Arm(earliest)
}

// fireRepairs multicasts due repairs.
func (r *Receiver) fireRepairs(now sim.Time) {
	for seq, at := range r.repairPending {
		if at > now {
			continue
		}
		delete(r.repairPending, seq)
		payload, flags, ok := r.fecLookup(seq)
		if !ok {
			continue
		}
		r.st.RepairsSent++
		pl := make([]byte, len(payload))
		copy(pl, payload)
		rep := &packet.Packet{
			Header: packet.Header{
				Type:    packet.TypeData,
				Seq:     uint32(seq),
				Length:  uint32(len(pl)),
				RateAdv: r.advRate,
				Tries:   1, // a repair is by definition a retransmission
				// The FIN flag must survive a peer repair just as it
				// survives a head repair: without it the repaired
				// receiver delivers every byte but never sees
				// end-of-stream.
				Flags: flags & packet.FlagFIN,
			},
			Payload: pl,
		}
		rep.SrcPort = r.cfg.LocalPort
		rep.DstPort = r.cfg.RemotePort
		r.outMC.Push(rep)
	}
	r.armRepairTimer(now)
}

// onFec attempts single-erasure recovery from an FEC parity packet
// (extension): when exactly one packet of the covered group is missing
// and the rest are still buffered, the loss is repaired locally with no
// NAK round trip.
func (r *Receiver) onFec(now sim.Time, p *packet.Packet) {
	r.st.FecParityHeard++
	rebuilt, ok := r.fdec.Recover(p, r.fecLookup)
	if !ok {
		// Nothing to rebuild: the group is complete (the common case —
		// parity spent on a loss that never happened), more than one
		// member is gone, or the parity is unusable.
		r.st.FecParityWasted++
		// A failed reconstruction is still information: the group's
		// parity has arrived and could not repair its gaps, so local
		// repair is off the table for every deferred entry it covers.
		// Expire their defers now — keeping them waiting only adds the
		// full defer window to the retransmission round trip. The
		// stamp stays nonzero so the fallback counter still sees them.
		if p.Type == packet.TypeFec && len(r.pending) > 0 {
			base := seqspace.Seq(p.Seq)
			expedited := false
			for i := 0; i < int(p.Length) && i < fec.MaxGroup; i++ {
				if e, ok := r.pending[base+seqspace.Seq(i)]; ok && e.deferUntil > now {
					e.deferUntil = now
					expedited = true
				}
			}
			if expedited {
				r.sendDueNaks(now)
				r.armNakTimer(now)
			}
		}
		return
	}
	// Only rebuild data that is actually missing and fits the window.
	seq := seqspace.Seq(rebuilt.Seq)
	if seqspace.Before(seq, r.wnd.Next()) {
		r.st.FecParityWasted++
		packet.Put(rebuilt)
		return
	}
	r.st.FecRecovered++
	trace.Emit(r.cfg.Trace, now, trace.FecRecovered, rebuilt.Seq, int64(len(rebuilt.Payload)))
	rebuilt.RateAdv = r.advRate
	if !r.onData(now, rebuilt) {
		// The window refused it (raced a retransmission into Duplicate,
		// or out of window): drop our pool reference, exactly as the
		// session drops unretained receive packets.
		packet.Put(rebuilt)
	}
	// Local repair must not look like loss feedback: the rebuilt packet
	// filled its own gap, so the counters above tell the story.
}

func (r *Receiver) onKeepalive(now sim.Time, p *packet.Packet) {
	r.st.KeepalivesHeard++
	r.advRate = p.RateAdv
	if r.cfg.JoinInProgress && !r.rebased && !r.seenAnyData {
		// A mid-stream joiner must not NAK history it will never
		// deliver: anchor one past the keepalive's last-transmitted
		// sequence number and join from there.
		r.anchorAndJoin(now, seqspace.Seq(p.Seq)+1)
		return
	}
	// The keepalive carries the last sequence number transmitted; if we
	// have not received through it, the tail of a burst was lost.
	r.wnd.ExtendHighest(seqspace.Seq(p.Seq))
	r.syncNakList(now)
	// A KEEPALIVE means the sender is idle or blocked: report in-order
	// data it has not heard of, which may be what frees its window.
	if r.progressUpdates() && seqspace.After(r.wnd.Next(), r.lastReported) {
		r.sendProgressUpdate(now)
	}
}

func (r *Receiver) onProbe(now sim.Time, p *packet.Packet) {
	if r.cfg.Mode == RMC {
		return // the RMC baseline predates probes
	}
	r.st.ProbesReceived++
	r.probesInPer++
	probeSeq := seqspace.Seq(p.Seq)
	if r.cfg.JoinInProgress && !r.rebased && !r.seenAnyData {
		// Mid-stream joiner: the probed data predates us. Anchor past it
		// and answer so the sender's release check stops waiting on a
		// stale membership entry.
		r.anchorAndJoin(now, probeSeq+1)
		if r.head != nil {
			r.sendAggUpdate(now)
		} else {
			r.sendUpdate(now)
		}
		return
	}
	if r.head != nil {
		// Head mode: the probe asks about the subtree, and the aggregate
		// is the answer. When the head itself lacks the probed data it
		// also NAKs immediately (the sender is blocked on it); when only
		// members lag, the AGG_UPDATE tells the sender how far the
		// subtree actually is, and member HEAD_NAKs drive the repairs.
		if seqspace.After(r.reportedNext(), probeSeq) {
			trace.Emit(r.cfg.Trace, now, trace.ProbeAnswered, p.Seq, 1)
		}
		if !seqspace.After(r.wnd.Next(), probeSeq) {
			r.wnd.ExtendHighest(probeSeq)
			r.syncNakList(now)
			r.forceNak(now)
		}
		r.sendAggUpdate(now)
		return
	}
	if seqspace.After(r.wnd.Next(), probeSeq) {
		// All data up to and including the probed sequence number has
		// been received: answer with an immediate UPDATE.
		trace.Emit(r.cfg.Trace, now, trace.ProbeAnswered, p.Seq, 1)
		r.sendUpdate(now)
		return
	}
	// Otherwise the probed data is missing: make the gap visible and NAK
	// immediately.
	r.wnd.ExtendHighest(probeSeq)
	r.syncNakList(now)
	r.forceNak(now)
}

// forceNak retransmits a NAK for the first pending gap immediately,
// bypassing suppression — the sender is blocked on this information.
func (r *Receiver) forceNak(now sim.Time) {
	gaps := r.wnd.Missing(nil)
	if len(gaps) == 0 {
		return
	}
	g := gaps[0]
	var tries uint8
	for s := g.From; seqspace.Before(s, g.To); s++ {
		if e := r.pending[s]; e != nil {
			if e.tries > 0 {
				r.st.NakRetries++
				tries = 1 // re-ask: not an RTT sample for the sender
			} else {
				r.st.NaksSent++
			}
			e.lastSent = now
			e.tries++
		}
	}
	r.emitNak(now, &packet.Packet{Header: packet.Header{
		Type:    packet.TypeNak,
		Seq:     uint32(g.From),
		Length:  g.Count(),
		Tries:   tries,
		RateAdv: uint32(r.reportedNext()),
	}}, false)
	r.feedbackInPer = true
	r.armNakTimer(now)
}

// sendJoin emits a JOIN and arms the retry timer. In leaf mode emit
// routes it to the repair head; a head joins the sender directly.
func (r *Receiver) sendJoin(now sim.Time) {
	r.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeJoin,
		Seq:  uint32(r.reportedNext()),
	}})
	r.noteHeadWait(now)
	// JOINs are retried every 50 grains until JOIN_RESPONSE arrives.
	r.joinTimer.Arm(now + 50*r.cfg.Grain)
}

func (r *Receiver) onJoinResponse(now sim.Time, from packet.NodeID) {
	if r.headDown && from != 0 && from == r.cfg.RepairHead {
		// A stale ack from the failed head must not complete the JOIN
		// handshake we re-homed to the sender. (With re-adoption on,
		// onHeadTraffic already re-attached before we got here.)
		return
	}
	if r.joinAcked || !r.joined {
		return
	}
	r.joinAcked = true
	r.joinTimer.Disarm()
	// Karn's rule: only an unambiguous (never-retransmitted) JOIN
	// exchange yields an RTT sample. The clock cannot resolve sub-tick
	// round trips, so the estimate floors at two grains.
	if d := now - r.joinTime; d > 0 && !r.joinAmbiguous {
		r.rttEstimate = max(d, 2*r.cfg.Grain)
	}
}

func (r *Receiver) sendUpdate(now sim.Time) {
	r.st.UpdatesSent++
	trace.Emit(r.cfg.Trace, now, trace.UpdateSent, uint32(r.wnd.Next()), 0)
	r.lastReported = r.reportedNext()
	r.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeUpdate,
		Seq:  uint32(r.lastReported),
	}})
}

// progressUpdates reports whether delivery progress triggers UPDATEs
// (Config.ProgressUpdates): only a flat H-RMC receiver still receiving
// the stream. A repair head aggregates on its own clock, a leaf reports
// to its head, RMC has no release feedback, and after the FIN the LEAVE
// carries the final state.
func (r *Receiver) progressUpdates() bool {
	return r.cfg.ProgressUpdates && r.cfg.Mode == HRMC && r.head == nil &&
		r.leafHead() == 0 && !r.finDelivered
}

// sendProgressUpdate sends a feedback-clocked UPDATE; it informs the
// current period, so the Update Generator skips its periodic one.
func (r *Receiver) sendProgressUpdate(now sim.Time) {
	r.st.UpdatesProgress++
	r.sendUpdate(now)
	r.feedbackInPer = true
}

// sendAggUpdate emits one aggregated UPDATE to the sender (head mode):
// the minimum next-expected sequence number over the head and its
// subtree, and the downstream member count.
func (r *Receiver) sendAggUpdate(now sim.Time) {
	min, members := r.head.Aggregate(r.wnd.Next())
	r.st.AggUpdatesSent++
	trace.Emit(r.cfg.Trace, now, trace.AggUpdateSent, uint32(min), int64(members))
	r.emit(&packet.Packet{Header: packet.Header{
		Type:   packet.TypeAggUpdate,
		Seq:    uint32(min),
		Length: uint32(members),
	}})
}

// maybeLeave sends the head's deferred LEAVE: a head that has delivered
// the whole stream holds its LEAVE until every downstream member is
// past the stream end (or evicted by the member timeout) — leaving
// earlier would drop the subtree minimum from the sender's release
// check while members still need repairs.
func (r *Receiver) maybeLeave(now sim.Time) {
	if r.head == nil || !r.finDelivered || r.leaveSent {
		return
	}
	if !r.head.Drained(r.wnd.Next()) {
		if r.drainStart == 0 {
			r.drainStart = now
			return
		}
		if now-r.drainStart < r.head.LeaveDrainTimeout() {
			return
		}
		// Drain bound hit: one dead or wedged member must not hold the
		// head's departure (and the sender's state for it) indefinitely.
		r.st.HeadDrainTimeouts++
		trace.Emit(r.cfg.Trace, now, trace.HeadDrainTimeout,
			uint32(r.wnd.Next()), int64(r.head.Members()))
	}
	r.leaveSent = true
	r.sendLeave(now)
}

// maxLeaveRetries bounds the LEAVE retries: a sender that stays silent
// through them is gone, and the receiver stops asking.
const maxLeaveRetries = 6

// sendLeave emits the LEAVE and, with RetryLeave, arms its retry.
func (r *Receiver) sendLeave(now sim.Time) {
	r.emit(&packet.Packet{Header: packet.Header{
		Type: packet.TypeLeave,
		Seq:  uint32(r.reportedNext()),
	}})
	if r.cfg.RetryLeave && r.leaveTries < maxLeaveRetries {
		r.leaveTimer.Arm(now + 50*r.cfg.Grain<<r.leaveTries)
	}
}

// Advance fires any due timers: the NAK Manager and the Update
// Generator. Drivers call it at their tick granularity or at NextWake.
func (r *Receiver) Advance(now sim.Time) {
	if r.leafHead() != 0 && r.headWaitSince != 0 && r.cfg.HeadSilenceTimeout > 0 {
		if (!r.joined || r.joinAcked) && len(r.pending) == 0 &&
			!(r.leaveSent && !r.leaveAcked) {
			// Nothing outstanding anymore: the request was answered
			// indirectly (e.g. the sender's multicast retransmission
			// filled the gap), so the silence clock resets.
			r.headWaitSince = 0
		} else if now-r.headWaitSince >= r.cfg.HeadSilenceTimeout {
			r.failover(now)
		}
	}
	if r.nakTimer.Fire(now) {
		r.sendDueNaks(now)
		r.armNakTimer(now)
	}
	if r.updateTimer.Fire(now) {
		r.onUpdateTimer(now)
	}
	if r.joinTimer.Fire(now) {
		if !r.joinAcked && !r.finDelivered {
			r.joinAmbiguous = true
			r.sendJoin(now)
		}
	}
	if r.repairTimer.Fire(now) {
		r.fireRepairs(now)
	}
	if r.leaveTimer.Fire(now) && r.leaveSent && !r.leaveAcked {
		r.leaveTries++
		r.sendLeave(now)
	}
	if r.head != nil && r.head.Tick(now) {
		// The aggregate period elapsed: one AGG_UPDATE speaks for the
		// whole subtree (and the eviction sweep ran inside Tick).
		if !r.leaveSent {
			r.sendAggUpdate(now)
		}
		r.maybeLeave(now)
	}
}

// onUpdateTimer is the Update Generator of Figure 9: send a periodic
// UPDATE (unless other reverse traffic already informed the sender this
// period) and adjust the period by one grain based on whether probes
// arrived — down when the sender had to probe, up when it did not.
func (r *Receiver) onUpdateTimer(now sim.Time) {
	if r.seenAnyData && !r.finDelivered {
		if r.feedbackInPer {
			r.st.UpdatesSkipped++
		} else {
			r.sendUpdate(now)
		}
	}
	if r.probesInPer > 0 {
		r.updatePeriod -= r.cfg.Grain
		if r.updatePeriod < r.cfg.MinUpdatePeriod {
			r.updatePeriod = r.cfg.MinUpdatePeriod
		}
	} else {
		r.updatePeriod += r.cfg.Grain
		if r.updatePeriod > r.cfg.MaxUpdatePeriod {
			r.updatePeriod = r.cfg.MaxUpdatePeriod
		}
	}
	r.probesInPer = 0
	r.feedbackInPer = false
	if !r.finDelivered {
		r.updateTimer.Arm(now + r.updatePeriod)
	}
}

// NextWake returns the earliest time Advance needs to run: the earliest
// armed timer, or the leaf's head-silence deadline.
func (r *Receiver) NextWake() (sim.Time, bool) {
	at, ok := kernel.Earliest(&r.nakTimer, &r.updateTimer, &r.joinTimer, &r.repairTimer, &r.leaveTimer)
	if r.head != nil {
		if t, armed := r.head.Timer().Deadline(); armed && (!ok || t < at) {
			at, ok = t, true
		}
	}
	if r.leafHead() != 0 && r.headWaitSince != 0 && r.cfg.HeadSilenceTimeout > 0 {
		if t := r.headWaitSince + r.cfg.HeadSilenceTimeout; !ok || t < at {
			at, ok = t, true
		}
	}
	return at, ok
}

// Read delivers in-order stream bytes to the application. At end of
// stream it returns io.EOF (after the final bytes) and queues the LEAVE
// message.
func (r *Receiver) Read(now sim.Time, buf []byte) (int, error) {
	if r.finDelivered {
		return 0, io.EOF
	}
	n, fin := r.wnd.Read(buf)
	r.st.BytesDelivered += int64(n)
	if fin {
		r.finDelivered = true
		trace.Emit(r.cfg.Trace, now, trace.StreamComplete, uint32(r.wnd.Next()), r.st.BytesDelivered)
		r.updateTimer.Disarm()
		// The stream is complete: no gap can need parity repair any
		// more, so the recovery cache's pool references go back.
		r.releaseFecCache()
		if r.head != nil {
			// A head reports the subtree state and defers its LEAVE
			// until every member is past the stream end — it must keep
			// answering HEAD_NAKs until then.
			r.sendAggUpdate(now)
			r.maybeLeave(now)
		} else if !r.leaveSent {
			r.leaveSent = true
			// A final UPDATE tells the sender everything was received,
			// then LEAVE closes the membership. The RMC baseline has no
			// UPDATE packet type.
			if r.cfg.Mode == HRMC {
				r.sendUpdate(now)
			}
			r.sendLeave(now)
			r.noteHeadWait(now)
		}
		if n == 0 {
			return 0, io.EOF
		}
	}
	return n, nil
}

// Buffered returns the number of in-order packets awaiting Read.
func (r *Receiver) Buffered() int { return r.wnd.Buffered() }

// ReleaseBuffers drops every buffered packet, returning retained pool
// packets to the pool. It is for teardown of an aborted flow only; the
// machine must not be used afterwards.
func (r *Receiver) ReleaseBuffers() {
	r.wnd.ReleaseAll()
	r.releaseFecCache()
	if r.head != nil {
		r.head.ReleaseAll()
	}
}

// Head exposes the repair-head machine (nil unless configured) for
// inspection in tests and the control plane.
func (r *Receiver) Head() *repair.Head { return r.head }

// HeadDown reports whether a leaf has declared its repair head dead and
// failed over to flat mode.
func (r *Receiver) HeadDown() bool { return r.headDown }

// RebasedAt returns the JoinInProgress anchor point and whether the
// receiver anchored mid-stream. Drivers use it to translate delivered
// bytes back to stream offsets.
func (r *Receiver) RebasedAt() (seqspace.Seq, bool) { return r.rebasedTo, r.rebased }

// Window exposes the receive window for inspection in tests and stats.
func (r *Receiver) Window() *window.ReceiveWindow { return r.wnd }
