//go:build linux

package control

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/udpmcast"
)

// igmpMaxMemberships reads the kernel's per-socket multicast membership
// limit, defaulting to Linux's 20.
func igmpMaxMemberships() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/igmp_max_memberships")
	if err != nil {
		return 20
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n <= 0 {
		return 20
	}
	return n
}

// forgetWhenTerminal forgets flow id as soon as its pump has exited.
func forgetWhenTerminal(t *testing.T, m *Manager, id int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := m.Forget(id)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrNotTerminal) || time.Now().After(deadline) {
			t.Fatalf("forget flow %d: %v", id, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedDialerReleasesMemberships admits and forgets three times
// the kernel's membership limit worth of fresh groups on one real UDP
// shard. Each group is joined by a receiver and registered by a sender
// sharing its reference count; forgetting both must drop the IGMP
// membership, or the shard starts refusing joins (ENOBUFS) once the
// limit is reached, and the group's send resolution, or the shard's
// group table grows with every group it ever served. A transfer on a final fresh group then checks the
// shard still carries traffic.
func TestShardedDialerReleasesMemberships(t *testing.T) {
	const port = 47431
	gt, err := udpmcast.NewGroupTransport(udpmcast.GroupConfig{Port: port, Loopback: true})
	if err != nil {
		t.Skipf("no loopback multicast: %v", err)
	}
	dialer, err := NewShardedDialer([]transport.GroupTransport{gt})
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(session.Config{})
	defer sess.Abort()
	sinks := newMemSinks()
	mgr := NewManager(ManagerConfig{
		Session:    sess,
		Dialer:     dialer,
		OpenSource: seededSource(nameSeed),
		OpenSink:   sinks.open,
	})

	groups := 3 * igmpMaxMemberships()
	for g := 0; g < groups; g++ {
		group := fmt.Sprintf("239.77.%d.%d:%d", g/200, 1+g%200, port)
		rcv, err := mgr.Admit(FlowSpec{Name: fmt.Sprintf("r%d", g), Group: group, Role: RoleRecv, LocalPort: 21, PeerPort: 20})
		if err != nil {
			t.Fatalf("group %d of %d: admit receiver: %v", g, groups, err)
		}
		snd, err := mgr.Admit(FlowSpec{Name: fmt.Sprintf("s%d", g), Group: group, Role: RoleSend, LocalPort: 20, PeerPort: 21, Size: 1 << 20})
		if err != nil {
			t.Fatalf("group %d of %d: admit sender: %v", g, groups, err)
		}
		if err := mgr.Abort(rcv.ID); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Abort(snd.ID); err != nil {
			t.Fatal(err)
		}
		forgetWhenTerminal(t, mgr, rcv.ID)
		forgetWhenTerminal(t, mgr, snd.ID)
	}
	if st := gt.GroupStats(); st.Joined != 0 || st.Registered != 0 {
		t.Errorf("after forgetting every flow the shard still holds %d memberships and %d resolved groups",
			st.Joined, st.Registered)
	}

	const size = 64 << 10
	group := fmt.Sprintf("239.78.0.1:%d", port)
	rcv, err := mgr.Admit(FlowSpec{Name: "last-r", Group: group, Role: RoleRecv, LocalPort: 21, PeerPort: 20})
	if err != nil {
		t.Fatalf("admit final receiver: %v", err)
	}
	if _, err := mgr.Admit(FlowSpec{Name: "last-s", Group: group, Role: RoleSend, LocalPort: 20, PeerPort: 21, Size: size, Receivers: 1}); err != nil {
		t.Fatalf("admit final sender: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := mgr.Status(rcv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final transfer stuck in state %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sinks.get("last-r").bytes(); len(got) != size {
		t.Errorf("final transfer delivered %d bytes, want %d", len(got), size)
	}
}
