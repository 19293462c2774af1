// Shared-socket shards: the configuration of NewGroupTransport, built on
// Linux by group_linux.go and refused elsewhere by group_stub.go.
//
// A shard is one socket pair hosting many multicast groups:
//
//   - mconn binds the shared data port with SO_REUSEADDR, joins every
//     group via IP_ADD_MEMBERSHIP, disables IP_MULTICAST_ALL (so it
//     receives only groups it joined, not every group any socket on the
//     host joined), and enables IP_PKTINFO so each datagram's
//     destination group address comes back as a control message. That
//     destination address — an IPv4 address, read as a big-endian
//     uint32 — IS the transport.GroupID, so kernel demux output maps
//     straight to the envelope tag with no lookup.
//   - uconn is an ephemeral-port unicast socket carrying all
//     transmission (multicast egress included) and receiving unicast
//     feedback. Sending from uconn rather than the shared data port
//     means peers learn a per-process source address, so feedback and
//     PROBEs route between daemons even when several share one host
//     and one data port.
//
// Every group on a transport must use the transport's data port: the
// group address alone distinguishes them. A daemon shards its groups
// across a few GroupTransports (see internal/control.ShardedDialer),
// giving O(shards) sockets and read loops for O(thousands) of groups.
package udpmcast

import (
	"errors"
	"net"
)

// ErrGroupUnsupported reports that shards and group memberships are
// unavailable on this platform (they need the Linux recvmmsg +
// IP_PKTINFO plumbing); callers fall back to one single-group endpoint
// per flow.
var ErrGroupUnsupported = errors.New("udpmcast: shared-socket group transport requires linux amd64/arm64")

// GroupConfig configures a shared-socket group transport.
type GroupConfig struct {
	// Port is the UDP data port shared by every group on this
	// transport. Required.
	Port int
	// Interface selects the NIC for memberships and multicast egress;
	// nil uses the system default route.
	Interface *net.Interface
	// Loopback confines the transport to 127.0.0.1: memberships join on
	// the loopback interface, egress is pinned there, and multicast
	// loop is enabled — the same-host demo/test mode.
	Loopback bool
}
