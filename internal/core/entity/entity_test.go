package entity

import (
	"errors"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

var (
	macA = netpkt.MustParseMAC("02:00:00:00:00:0a")
	macB = netpkt.MustParseMAC("02:00:00:00:00:0b")
	ipA  = netpkt.MustParseIPv4("10.0.0.10")
	ipB  = netpkt.MustParseIPv4("10.0.0.11")
)

func TestResolveFullChain(t *testing.T) {
	m := NewManager()
	m.BindIPMAC(ipA, macA)
	m.BindHostIP("alice-laptop", ipA)
	m.BindUserHost("alice", "alice-laptop")
	m.BindMACLocation(macA, Location{DPID: 1, Port: 3})

	res, err := m.Resolve(Observed{
		MAC: macA, HasIP: true, IP: ipA,
		HasLoc: true, Loc: Location{DPID: 1, Port: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host != "alice-laptop" {
		t.Fatalf("Host = %q", res.Host)
	}
	if len(res.Users) != 1 || res.Users[0] != "alice" {
		t.Fatalf("Users = %v", res.Users)
	}
}

func TestResolveUnknownIsEmptyNotError(t *testing.T) {
	m := NewManager()
	res, err := m.Resolve(Observed{MAC: macA, HasIP: true, IP: ipA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host != "" || len(res.Users) != 0 {
		t.Fatalf("res = %+v, want empty", res)
	}
}

func TestResolveSpoofedIPMAC(t *testing.T) {
	m := NewManager()
	m.BindIPMAC(ipA, macA)
	// Packet claims ipA but is sent from macB: spoofed.
	_, err := m.Resolve(Observed{MAC: macB, HasIP: true, IP: ipA})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestResolveSpoofedLocation(t *testing.T) {
	m := NewManager()
	m.BindMACLocation(macA, Location{DPID: 1, Port: 3})
	_, err := m.Resolve(Observed{MAC: macA, HasLoc: true, Loc: Location{DPID: 1, Port: 9}})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
	// Same MAC appearing on a *different switch* is fine (multi-switch
	// paths), as long as the per-switch port is consistent.
	if _, err := m.Resolve(Observed{MAC: macA, HasLoc: true, Loc: Location{DPID: 2, Port: 1}}); err != nil {
		t.Fatalf("different switch: %v", err)
	}
}

func TestMultipleUsersPerHost(t *testing.T) {
	m := NewManager()
	m.BindUserHost("alice", "h1")
	m.BindUserHost("bob", "h1")
	if got := m.UsersOn("h1"); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("UsersOn = %v", got)
	}
	m.UnbindUserHost("alice", "h1")
	if got := m.UsersOn("h1"); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("UsersOn after unbind = %v", got)
	}
}

func TestUserOnMultipleHosts(t *testing.T) {
	m := NewManager()
	m.BindUserHost("alice", "h1")
	m.BindUserHost("alice", "h2")
	if got := m.HostsOf("alice"); len(got) != 2 {
		t.Fatalf("HostsOf = %v", got)
	}
	m.UnbindUserHost("alice", "h1")
	if got := m.HostsOf("alice"); len(got) != 1 || got[0] != "h2" {
		t.Fatalf("HostsOf after unbind = %v", got)
	}
}

func TestDHCPLeaseReassignment(t *testing.T) {
	m := NewManager()
	m.BindIPMAC(ipA, macA)
	// The lease moves to another machine.
	m.BindIPMAC(ipA, macB)
	if mac, _ := m.MACOf(ipA); mac != macB {
		t.Fatalf("MACOf = %v, want %v", mac, macB)
	}
	// Old owner must now be inconsistent.
	if _, err := m.Resolve(Observed{MAC: macA, HasIP: true, IP: ipA}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
	// New owner resolves cleanly.
	if _, err := m.Resolve(Observed{MAC: macB, HasIP: true, IP: ipA}); err != nil {
		t.Fatal(err)
	}
}

func TestDNSRebindMovesHost(t *testing.T) {
	m := NewManager()
	m.BindHostIP("h1", ipA)
	m.BindHostIP("h2", ipA) // dynamic DNS: ipA now points at h2
	if h, _ := m.HostOf(ipA); h != "h2" {
		t.Fatalf("HostOf = %q, want h2", h)
	}
	if ips := m.IPsOf("h1"); len(ips) != 0 {
		t.Fatalf("IPsOf(h1) = %v, want empty", ips)
	}
}

func TestHostWithMultipleIPs(t *testing.T) {
	m := NewManager()
	m.BindHostIP("h1", ipA)
	m.BindHostIP("h1", ipB)
	if ips := m.IPsOf("h1"); len(ips) != 2 {
		t.Fatalf("IPsOf = %v", ips)
	}
	m.UnbindHostIP("h1", ipA)
	if ips := m.IPsOf("h1"); len(ips) != 1 || ips[0] != ipB {
		t.Fatalf("IPsOf after unbind = %v", ips)
	}
}

func TestMACLocationReplacedPerSwitch(t *testing.T) {
	m := NewManager()
	m.BindMACLocation(macA, Location{DPID: 1, Port: 3})
	// Host moves to another port on the same switch.
	m.BindMACLocation(macA, Location{DPID: 1, Port: 5})
	if port, ok := m.LocationOf(macA, 1); !ok || port != 5 {
		t.Fatalf("LocationOf = %d, %v", port, ok)
	}
	m.UnbindMACLocation(macA, 1)
	if _, ok := m.LocationOf(macA, 1); ok {
		t.Fatal("location survived unbind")
	}
}

func TestResolveBothChargesOnce(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	m := NewManager(WithQueryLatency(clk, store.Fixed(2*time.Millisecond)))
	m.BindIPMAC(ipA, macA)
	m.BindIPMAC(ipB, macB)
	clk.Go(func() {
		if _, _, err := m.ResolveBoth(
			Observed{MAC: macA, HasIP: true, IP: ipA},
			Observed{MAC: macB, HasIP: true, IP: ipB},
		); err != nil {
			t.Error(err)
		}
	})
	end := clk.Run()
	if want := epoch.Add(2 * time.Millisecond); !end.Equal(want) {
		t.Fatalf("clock = %v, want exactly one 2ms charge, got %v", end, end.Sub(epoch))
	}
}

func TestResolveBothSpoofedSource(t *testing.T) {
	m := NewManager()
	m.BindIPMAC(ipA, macA)
	_, _, err := m.ResolveBoth(
		Observed{MAC: macB, HasIP: true, IP: ipA}, // spoofed
		Observed{MAC: macB, HasIP: true, IP: ipB},
	)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogoffRemovesUserFromResolution(t *testing.T) {
	m := NewManager()
	m.BindIPMAC(ipA, macA)
	m.BindHostIP("h1", ipA)
	m.BindUserHost("alice", "h1")

	res, err := m.Resolve(Observed{MAC: macA, HasIP: true, IP: ipA})
	if err != nil || len(res.Users) != 1 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	m.UnbindUserHost("alice", "h1")
	res, err = m.Resolve(Observed{MAC: macA, HasIP: true, IP: ipA})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != 0 {
		t.Fatalf("Users after logoff = %v", res.Users)
	}
	if res.Host != "h1" {
		t.Fatalf("Host = %q (machine binding should survive logoff)", res.Host)
	}
}

// TestEpochBumpsOnlyOnEffectiveChange: every kind of binding mutation
// bumps the epoch exactly when it changes state, and re-binding identical
// state never does — the PCP re-observes every flow's MAC location, so a
// no-op bump would invalidate the flow-decision cache on every packet.
func TestEpochBumpsOnlyOnEffectiveChange(t *testing.T) {
	m := NewManager()
	e := m.Epoch()
	step := func(name string, wantBump bool, f func()) {
		t.Helper()
		f()
		now := m.Epoch()
		if wantBump && now == e {
			t.Fatalf("%s: epoch did not bump", name)
		}
		if !wantBump && now != e {
			t.Fatalf("%s: no-op bumped epoch %d -> %d", name, e, now)
		}
		e = now
	}

	step("bind user", true, func() { m.BindUserHost("alice", "h1") })
	step("rebind same user", false, func() { m.BindUserHost("alice", "h1") })
	step("unbind user", true, func() { m.UnbindUserHost("alice", "h1") })
	step("unbind absent user", false, func() { m.UnbindUserHost("alice", "h1") })

	step("bind host ip", true, func() { m.BindHostIP("h1", ipA) })
	step("rebind same host ip", false, func() { m.BindHostIP("h1", ipA) })
	step("rebind ip to new host", true, func() { m.BindHostIP("h2", ipA) })
	step("unbind host ip", true, func() { m.UnbindHostIP("h2", ipA) })
	step("unbind absent host ip", false, func() { m.UnbindHostIP("h2", ipA) })

	step("bind ip mac", true, func() { m.BindIPMAC(ipA, macA) })
	step("rebind same lease", false, func() { m.BindIPMAC(ipA, macA) })
	step("lease reassignment", true, func() { m.BindIPMAC(ipA, macB) })
	step("unbind lease", true, func() { m.UnbindIPMAC(ipA, macB) })
	step("unbind absent lease", false, func() { m.UnbindIPMAC(ipA, macB) })

	step("bind mac location", true, func() { m.BindMACLocation(macA, Location{DPID: 1, Port: 3}) })
	step("re-observe same location", false, func() { m.BindMACLocation(macA, Location{DPID: 1, Port: 3}) })
	step("mac moves port", true, func() { m.BindMACLocation(macA, Location{DPID: 1, Port: 4}) })
	step("same mac on second switch", true, func() { m.BindMACLocation(macA, Location{DPID: 2, Port: 1}) })
	step("unbind location", true, func() { m.UnbindMACLocation(macA, 1) })
	step("unbind absent location", false, func() { m.UnbindMACLocation(macA, 1) })
}
