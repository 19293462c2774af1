//go:build !linux || (!amd64 && !arm64)

// Shard stubs for platforms without the recvmmsg/IP_PKTINFO plumbing:
// NewGroupTransport fails with ErrGroupUnsupported, and callers
// (hrmcd's sharded mode) fall back to one single-group endpoint per
// flow.
package udpmcast

import "net"

// NewGroupTransport always fails with ErrGroupUnsupported here.
func NewGroupTransport(GroupConfig) (*GroupTransport, error) { return nil, ErrGroupUnsupported }

// membership always fails with ErrGroupUnsupported here.
func (t *GroupTransport) membership(net.IP, bool) error { return ErrGroupUnsupported }
