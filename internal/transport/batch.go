// Transport v2: the batch-first interface. Every layer of the live
// stack — the udpmcast syscall boundary, the in-memory hub, and the
// session demultiplexer — moves envelopes in batches, amortizing one
// syscall / lock acquisition / dispatch over many packets. Transport
// extends BatchTransport with per-packet Send and Recv, which every
// implementation provides as batch-size-1 adapters over the batch
// methods.
package transport

import "repro/internal/packet"

// Envelope is one packet in flight with its addressing. On the send
// side To and Multicast select the destination (To is ignored for
// multicast), and Group selects which multicast group of a
// GroupTransport the packet goes to (ignored by single-group
// transports); on the receive side From carries the source node ID,
// Group the multicast group the packet arrived on (0 for unicast), and
// the destination fields are zero.
type Envelope struct {
	Pkt       *packet.Packet
	From      packet.NodeID
	To        packet.NodeID
	Group     GroupID
	Multicast bool
}

// BatchTransport moves batches of encoded H-RMC packets between one
// sender and many receivers. Implementations must be safe for
// concurrent use. Packets come from the process-wide reference-counted
// pool in internal/packet (packet/pool.go has its full rules), and
// cross this interface as follows:
//
//   - RecvBatch hands packet ownership to the caller. The caller either
//     releases the packet with packet.Put once it is done — the
//     demultiplexer does this for packets no flow is bound to — or
//     hands ownership on. A protocol machine that retains the payload
//     (the receive window's hold-until-release buffering) releases it
//     on in-order delivery to the app.
//   - A packet passed to SendBatch remains owned by the sender;
//     implementations copy or encode it before returning and never
//     release it themselves. Senders that need the packet to outlive a
//     concurrent release (the session's shared send poller) cover the
//     overlap with packet.Retain.
//   - After the final packet.Put the packet and its payload must not be
//     touched: the pool will hand both to an unrelated receive path.
type BatchTransport interface {
	// SendBatch transmits every envelope, each to the whole group
	// (multicast) or to one node. It returns the first per-envelope
	// error after attempting the rest, or ErrClosed.
	SendBatch(env []Envelope) error
	// RecvBatch blocks until at least one packet arrives, fills buf
	// with as many as are immediately available (at most len(buf)),
	// and returns the count. It returns ErrClosed after Close.
	RecvBatch(buf []Envelope) (int, error)
	// Local returns this endpoint's node ID.
	Local() packet.NodeID
	// Close shuts the endpoint down and unblocks RecvBatch.
	Close() error
}

// InboundFilterFunc inspects a packet header before the transport
// commits resources to delivering it. Returning false discards the
// packet at the source — before cloning or queueing — so the filter
// must be cheap and must not retain the header.
type InboundFilterFunc func(h *packet.Header) bool

// FilteredTransport is implemented by transports that support early
// demultiplexing: the consumer pushes a destination filter down to the
// delivery path, and packets no local flow could accept are discarded
// before they are cloned or queued — the in-memory analogue of NIC
// multicast filtering / the kernel's early demux. internal/session
// installs its port-binding table here, which is what removes the
// O(endpoints²) clone fan-out on a shared hub. Filtering is advisory:
// consumers must still drop unroutable packets themselves.
type FilteredTransport interface {
	// SetInboundFilter installs f as the early-demux predicate; nil
	// restores deliver-everything. Safe for concurrent use with
	// traffic; packets already in flight may bypass a newly installed
	// filter.
	SetInboundFilter(f InboundFilterFunc)
}

// Batched returns tr: every Transport is a BatchTransport.
//
// Deprecated: use tr directly.
func Batched(tr Transport) BatchTransport { return tr }

// ReleaseEnvelopes returns every envelope's packet to the pool and
// clears the slots, for callers that consumed a whole RecvBatch
// without retaining anything.
func ReleaseEnvelopes(env []Envelope) {
	for i := range env {
		packet.Put(env[i].Pkt)
		env[i] = Envelope{}
	}
}
