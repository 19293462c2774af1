//go:build linux && (amd64 || arm64)

// The shard constructor: one socket pair hosting many multicast
// groups, demultiplexed on the kernel-reported destination address
// (IP_PKTINFO), plus IGMP membership changes. See group.go for the
// design overview and udpmcast.go for the endpoint itself.
package udpmcast

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"syscall"
)

// ipMulticastAll is the IP_MULTICAST_ALL socket option (absent from the
// syscall package). Linux defaults it to 1, which delivers traffic for
// ANY group any socket on the host joined to every socket bound to the
// group's port — clearing it confines mconn to its own memberships,
// which is what makes several sharded transports on one host sane.
const ipMulticastAll = 49

// NewGroupTransport opens the shared socket pair for one shard. No
// groups are joined yet; flows join (receive) or register (send-only)
// groups afterwards.
func NewGroupTransport(cfg GroupConfig) (*GroupTransport, error) {
	if cfg.Port <= 0 {
		return nil, fmt.Errorf("udpmcast: group transport needs a data port, got %d", cfg.Port)
	}
	ifidx := 0
	switch {
	case cfg.Loopback:
		lo, err := loopbackIndex()
		if err != nil {
			return nil, err
		}
		ifidx = lo
	case cfg.Interface != nil:
		ifidx = cfg.Interface.Index
	}

	mconn, err := listenShared(cfg.Port)
	if err != nil {
		return nil, err
	}
	uconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		mconn.Close()
		return nil, fmt.Errorf("udpmcast: listen unicast: %w", err)
	}
	t := newEndpoint(mconn, uconn, cfg.Port, nil)
	t.ifidx = ifidx
	// Pin outgoing multicast to the loopback address (with loop
	// enabled) or the configured interface.
	switch {
	case cfg.Loopback:
		err = setEgressIP(uconn, net.IPv4(127, 0, 0, 1).To4())
	case ifidx != 0:
		err = setEgressIf(uconn, ifidx)
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	// The mconn reader additionally recovers destination addresses
	// (IP_PKTINFO) for the group demux.
	t.start(newBatchReaderDst(mconn))
	return t, nil
}

// listenShared binds the shared data port with SO_REUSEADDR (several
// shards or daemons may share a host) and arms IP_PKTINFO +
// !IP_MULTICAST_ALL after the bind.
func listenShared(port int) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
		})
		if err != nil {
			return err
		}
		return serr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp4", net.JoinHostPort("0.0.0.0", strconv.Itoa(port)))
	if err != nil {
		return nil, fmt.Errorf("udpmcast: listen shared port %d: %w", port, err)
	}
	conn := pc.(*net.UDPConn)
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); e != nil {
			serr = fmt.Errorf("udpmcast: enable IP_PKTINFO: %w", e)
			return
		}
		if e := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, ipMulticastAll, 0); e != nil {
			serr = fmt.Errorf("udpmcast: clear IP_MULTICAST_ALL: %w", e)
		}
	})
	if err == nil {
		err = serr
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// setEgressIf pins conn's outgoing multicast to interface ifidx.
func setEgressIf(conn *net.UDPConn, ifidx int) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptIPMreqn(int(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF,
			&syscall.IPMreqn{Ifindex: int32(ifidx)})
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("udpmcast: set multicast egress: %w", serr)
	}
	return nil
}

// loopbackIndex finds the loopback interface's index.
func loopbackIndex() (int, error) {
	ifs, err := net.Interfaces()
	if err != nil {
		return 0, err
	}
	for _, ifi := range ifs {
		if ifi.Flags&net.FlagLoopback != 0 {
			return ifi.Index, nil
		}
	}
	return 0, fmt.Errorf("udpmcast: no loopback interface")
}

// membership adds (join) or drops one IGMP membership on mconn. Caller
// holds t.mu (which serializes membership changes).
func (t *GroupTransport) membership(ip4 net.IP, join bool) error {
	op := syscall.IP_DROP_MEMBERSHIP
	if join {
		op = syscall.IP_ADD_MEMBERSHIP
	}
	rc, err := t.mconn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		mreq := &syscall.IPMreqn{
			Multiaddr: [4]byte(ip4),
			Ifindex:   int32(t.ifidx),
		}
		serr = syscall.SetsockoptIPMreqn(int(fd), syscall.IPPROTO_IP, op, mreq)
	})
	if err != nil {
		return err
	}
	return serr
}
