// Package repair implements the hierarchical recovery tier: the repair-
// head role a receiver takes on so the sender tracks O(heads) state
// instead of O(receivers).
//
// A Head sits between the sender and a subtree of downstream receivers.
// Downstream members direct their feedback (JOIN/UPDATE/LEAVE) and
// retransmission requests (HEAD_NAK) at the head instead of the sender.
// The head
//
//   - retains the data packets it has delivered in its own
//     retransmission window (reusing internal/packet refcounting when
//     the packets are pool-owned) and answers HEAD_NAKs from that
//     window by multicasting the repair into its subtree,
//
//   - suppresses duplicate HEAD_NAKs for the same sequence number
//     within a suppression interval, so one loss shared by many members
//     produces one repair,
//
//   - escalates requests it cannot answer to the sender as an ordinary
//     NAK, and
//
//   - periodically emits one aggregated UPDATE (AGG_UPDATE) carrying
//     the minimum next-expected sequence number across itself and all
//     downstream members, which is all the sender needs for its
//     release decision.
//
// The Head is sans-I/O like the sender and receiver machines: the
// embedding receiver feeds it events and ships the packets it decides
// to emit. All methods are single-goroutine, driven by the receiver's
// lock.
package repair

import (
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Defaults for Config fields left zero.
const (
	// DefaultAggregatePeriod, in grains, spaces AGG_UPDATEs to the
	// sender. It is deliberately coarser than the receiver's own
	// adaptive UPDATE period: the head speaks for many members, and the
	// sender's release path only needs the subtree minimum, not a fresh
	// sample every RTT.
	DefaultAggregatePeriod = 25
	// DefaultSuppressionInterval, in grains, is how long after answering
	// (or escalating) a sequence number the head ignores further
	// HEAD_NAKs for it — long enough for the repair to reach the
	// subtree, short enough that a lost repair is re-requested quickly.
	DefaultSuppressionInterval = 4
	// DefaultMemberTimeout evicts downstream members that stopped
	// reporting, so a crashed leaf cannot pin the aggregate minimum
	// (and thus the sender's buffer) forever. It must comfortably
	// exceed the receiver's maximum UPDATE period (500 jiffies = 5 s):
	// evicting a live-but-quiet leaf drops it from the aggregate, which
	// is the unsafe direction.
	DefaultMemberTimeout = 16 * sim.Second
	// DefaultWindowPackets bounds the head's retained retransmission
	// window.
	DefaultWindowPackets = 512
	// DefaultLeaveDrainTimeout bounds how long a departing head defers
	// its own LEAVE waiting for the subtree to drain. A silently-dead
	// leaf would otherwise wedge shutdown for the full MemberTimeout.
	DefaultLeaveDrainTimeout = 4 * sim.Second
	// DefaultDeclineTTL is how long a declined sequence number is
	// remembered. After expiry a re-asked decline is re-derived through
	// the sender (escalate → NAK_ERR → decline), so a short TTL only
	// costs one extra round trip.
	DefaultDeclineTTL = 2 * sim.Second
)

// Config parameterizes a repair head.
type Config struct {
	// Grain is the clock grain the two defaults above are counted in.
	// Zero means kernel.Jiffy, the paper's clock.
	Grain sim.Time
	// AggregatePeriod is the interval between AGG_UPDATEs to the
	// sender. Zero means DefaultAggregatePeriod grains.
	AggregatePeriod sim.Time
	// SuppressionInterval is the duplicate-NAK suppression window per
	// sequence number. Zero means DefaultSuppressionInterval grains.
	SuppressionInterval sim.Time
	// MemberTimeout evicts members not heard from for this long. Zero
	// means DefaultMemberTimeout.
	MemberTimeout sim.Time
	// WindowPackets bounds the retained retransmission window, in
	// packets. Zero means DefaultWindowPackets. The embedding receiver
	// raises it to at least twice its receive-window size so that
	// evicted packets are always already consumed (below the receive
	// window's base) — the invariant that makes non-pooled eviction a
	// plain pointer drop.
	WindowPackets int
	// LeaveDrainTimeout caps the deferred-LEAVE drain: a departing head
	// waits at most this long for every member to reach the stream end
	// before leaving anyway. Zero means DefaultLeaveDrainTimeout.
	LeaveDrainTimeout sim.Time
}

func (c *Config) sanitize() {
	if c.Grain <= 0 {
		c.Grain = kernel.Jiffy
	}
	if c.AggregatePeriod <= 0 {
		c.AggregatePeriod = DefaultAggregatePeriod * c.Grain
	}
	if c.SuppressionInterval <= 0 {
		c.SuppressionInterval = DefaultSuppressionInterval * c.Grain
	}
	if c.MemberTimeout <= 0 {
		c.MemberTimeout = DefaultMemberTimeout
	}
	if c.WindowPackets <= 0 {
		c.WindowPackets = DefaultWindowPackets
	}
	if c.LeaveDrainTimeout <= 0 {
		c.LeaveDrainTimeout = DefaultLeaveDrainTimeout
	}
}

// Member is one downstream receiver the head answers for.
type Member struct {
	Addr packet.NodeID
	// NextExpected is the member's reported next-expected sequence
	// number (its rcv_nxt). Every repair-plane packet carries one, so
	// unlike the sender's membership table there is no unknown state.
	NextExpected seqspace.Seq
	// LastHeard drives timeout-based eviction.
	LastHeard sim.Time
}

// Head is the repair-head state machine a receiver embeds.
type Head struct {
	cfg Config
	st  *stats.Receiver
	// pooled records whether retained packets are pool-owned (the
	// receiver's zero-copy datapath with recycling on). When true the
	// head holds a reference (packet.Retain at retention, packet.Put at
	// eviction); when false — netsim clones, or an aliasing FEC cache —
	// retention is a plain pointer copy and eviction a plain drop:
	// donating a non-pooled packet to the pool could hand its buffer to
	// a new packet while a receive window still aliases it.
	pooled bool

	members map[packet.NodeID]*Member

	// win is the retained retransmission window, keyed by sequence
	// number; low tracks the lowest retained seq so eviction is O(1)
	// amortized (sequence numbers are retained in near-order).
	win map[seqspace.Seq]*packet.Packet
	low seqspace.Seq

	// answered records, per sequence number, when the head last served
	// or escalated a repair — the NAK-suppression state.
	answered map[seqspace.Seq]sim.Time

	// declined records sequence numbers the sender refused (NAK_ERR): the
	// data is released end-to-end and re-escalating cannot help, so the
	// head answers further HEAD_NAKs for them with HEAD_DECLINE. Entries
	// expire after DefaultDeclineTTL.
	declined map[seqspace.Seq]sim.Time

	// timer paces AGG_UPDATEs and member eviction.
	timer kernel.Timer
}

// NewHead creates a head. pooled declares whether retained packets are
// pool-owned (see the field comment); st receives repair-tier counters
// and must be non-nil.
func NewHead(now sim.Time, cfg Config, pooled bool, st *stats.Receiver) *Head {
	cfg.sanitize()
	h := &Head{
		cfg:      cfg,
		st:       st,
		pooled:   pooled,
		members:  make(map[packet.NodeID]*Member),
		win:      make(map[seqspace.Seq]*packet.Packet),
		answered: make(map[seqspace.Seq]sim.Time),
		declined: make(map[seqspace.Seq]sim.Time),
	}
	st.RepairHead = 1
	h.timer.ArmIn(now, cfg.AggregatePeriod)
	return h
}

// Members returns the current downstream member count.
func (h *Head) Members() int { return len(h.members) }

// Join registers a downstream member reporting nextExpected, returning
// whether it was new. Re-joins just refresh the existing entry.
func (h *Head) Join(now sim.Time, from packet.NodeID, nextExpected seqspace.Seq) bool {
	if m, ok := h.members[from]; ok {
		m.NextExpected = nextExpected
		m.LastHeard = now
		return false
	}
	h.members[from] = &Member{Addr: from, NextExpected: nextExpected, LastHeard: now}
	h.st.RepairMembers = int64(len(h.members))
	return true
}

// Update records a member's reported next-expected sequence number.
// Unknown members are added implicitly — a leaf whose JOIN raced the
// head's startup must not be lost.
func (h *Head) Update(now sim.Time, from packet.NodeID, nextExpected seqspace.Seq) {
	m, ok := h.members[from]
	if !ok {
		h.Join(now, from, nextExpected)
		return
	}
	// Unlike the sender's monotonic Update, regressions are accepted:
	// they only make the aggregate more conservative, which is the safe
	// direction.
	m.NextExpected = nextExpected
	m.LastHeard = now
}

// Leave removes a departing member.
func (h *Head) Leave(from packet.NodeID) {
	if _, ok := h.members[from]; !ok {
		return
	}
	delete(h.members, from)
	h.st.RepairMembers = int64(len(h.members))
}

// Retain stores a delivered data packet in the head's retransmission
// window, evicting the lowest retained sequence number when the window
// is full. The caller passes packets as the receive window accepts
// them; the head takes its own reference when they are pool-owned.
func (h *Head) Retain(p *packet.Packet) {
	seq := seqspace.Seq(p.Seq)
	if _, dup := h.win[seq]; dup {
		return
	}
	if len(h.win) == 0 || seqspace.Before(seq, h.low) {
		h.low = seq
	}
	if h.pooled {
		packet.Retain(p)
	}
	h.win[seq] = p
	for len(h.win) > h.cfg.WindowPackets {
		h.evictLowest()
	}
}

func (h *Head) evictLowest() {
	for {
		if p, ok := h.win[h.low]; ok {
			delete(h.win, h.low)
			if h.pooled {
				packet.Put(p)
			}
			h.low++
			return
		}
		h.low++
	}
}

// Retained returns the stored packet for seq, if the head still holds
// it. Callers copy the payload before re-emitting — the packet may be
// aliased by the receive window (and, when pooled, by the pool).
func (h *Head) Retained(seq seqspace.Seq) (*packet.Packet, bool) {
	p, ok := h.win[seq]
	return p, ok
}

// Handled implements NAK suppression: it reports whether seq was
// already answered or escalated within the suppression interval, and
// otherwise records now as the time it is being handled. One call per
// requested sequence number, before serving the repair.
func (h *Head) Handled(now sim.Time, seq seqspace.Seq) bool {
	if t, ok := h.answered[seq]; ok && now-t < h.cfg.SuppressionInterval {
		return true
	}
	h.answered[seq] = now
	if len(h.answered) > 4*h.cfg.WindowPackets {
		h.pruneAnswered(now)
	}
	return false
}

func (h *Head) pruneAnswered(now sim.Time) {
	for seq, t := range h.answered {
		if now-t >= h.cfg.SuppressionInterval {
			delete(h.answered, seq)
		}
	}
}

// Decline records that the sender refused seq with a NAK_ERR: the range
// is released and un-servable, so the head answers further HEAD_NAKs
// for it with an explicit HEAD_DECLINE instead of re-escalating.
func (h *Head) Decline(now sim.Time, seq seqspace.Seq) {
	h.declined[seq] = now
	if len(h.declined) > 4*h.cfg.WindowPackets {
		for s, t := range h.declined {
			if now-t >= DefaultDeclineTTL {
				delete(h.declined, s)
			}
		}
	}
}

// Declined reports whether seq carries an unexpired decline.
func (h *Head) Declined(now sim.Time, seq seqspace.Seq) bool {
	t, ok := h.declined[seq]
	if !ok {
		return false
	}
	if now-t >= DefaultDeclineTTL {
		delete(h.declined, seq)
		return false
	}
	return true
}

// LeaveDrainTimeout returns the configured deferred-LEAVE drain bound.
func (h *Head) LeaveDrainTimeout() sim.Time { return h.cfg.LeaveDrainTimeout }

// Aggregate returns the minimum next-expected sequence number across
// the head's own frontier and all downstream members, plus the member
// count — the AGG_UPDATE contents.
func (h *Head) Aggregate(own seqspace.Seq) (min seqspace.Seq, members int) {
	min = own
	for _, m := range h.members {
		if seqspace.Before(m.NextExpected, min) {
			min = m.NextExpected
		}
	}
	return min, len(h.members)
}

// ClampNext returns the subtree minimum given the head's own frontier —
// the value every head-to-sender feedback packet must report instead of
// the head's own rcv_nxt, so the sender never releases data a
// downstream member still needs.
func (h *Head) ClampNext(own seqspace.Seq) seqspace.Seq {
	min, _ := h.Aggregate(own)
	return min
}

// Drained reports whether every downstream member is at or past end —
// the condition for the head to forward its own LEAVE after delivering
// the stream end.
func (h *Head) Drained(end seqspace.Seq) bool {
	for _, m := range h.members {
		if seqspace.Before(m.NextExpected, end) {
			return false
		}
	}
	return true
}

// Tick drives the head's timer. It returns true when the aggregate
// period elapsed — the embedding receiver then emits an AGG_UPDATE.
// Expired members are evicted on the same cadence.
func (h *Head) Tick(now sim.Time) bool {
	if !h.timer.Fire(now) {
		return false
	}
	h.evictExpired(now)
	h.timer.ArmIn(now, h.cfg.AggregatePeriod)
	return true
}

func (h *Head) evictExpired(now sim.Time) {
	for addr, m := range h.members {
		if now-m.LastHeard >= h.cfg.MemberTimeout {
			delete(h.members, addr)
			h.st.RepairMembersEvicted++
		}
	}
	h.st.RepairMembers = int64(len(h.members))
}

// NextWake returns when Tick next needs to run.
func (h *Head) NextWake() (sim.Time, bool) { return h.timer.Deadline() }

// Timer exposes the head's timer so the embedding receiver can fold it
// into its own NextWake calculation.
func (h *Head) Timer() *kernel.Timer { return &h.timer }

// ReleaseAll drops the retained window, returning pool-owned packets.
// For teardown; the head must not be used afterwards.
func (h *Head) ReleaseAll() {
	for seq, p := range h.win {
		if h.pooled {
			packet.Put(p)
		}
		delete(h.win, seq)
	}
}
