package dfi_test

import (
	"io"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

func TestAddressHelpers(t *testing.T) {
	mac, err := dfi.ParseMAC("02:00:00:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	if p := dfi.MACOf(mac); p == nil || *p != mac {
		t.Fatal("MACOf wrong")
	}
	ip, err := dfi.ParseIPv4("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p := dfi.IPOf(ip); p == nil || *p != ip {
		t.Fatal("IPOf wrong")
	}
	if p := dfi.PortOf(443); p == nil || *p != 443 {
		t.Fatal("PortOf wrong")
	}
	if _, err := dfi.ParseMAC("bogus"); err == nil {
		t.Fatal("bad MAC accepted")
	}
	if _, err := dfi.ParseIPv4("bogus"); err == nil {
		t.Fatal("bad IP accepted")
	}
}

func TestSystemOptionsExercised(t *testing.T) {
	ctl := controller.New(controller.Config{})
	clk := simclock.Real{}
	sys, err := dfi.New(
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			go func() { _ = ctl.Serve(b) }()
			return a, nil
		}),
		dfi.WithClock(clk),
		dfi.WithRuleTimeouts(60, 5),
		dfi.WithAdmissionQueue(16, 2),
		dfi.WithLatencyProfile(store.Fixed(0), store.Fixed(0), nil, nil),
		dfi.WithWildcardCaching(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.PCP() == nil || sys.EventBus() == nil || sys.Proxy() == nil {
		t.Fatal("accessor returned nil")
	}
	// Constants and aliases are wired to the same underlying values.
	if dfi.ActionAllow.String() != "Allow" || dfi.ActionDeny.String() != "Deny" {
		t.Fatal("action aliases wrong")
	}
	if dfi.DefaultDenyID != 0 {
		t.Fatal("DefaultDenyID changed")
	}
	var lm dfi.LatencyModel = store.Fixed(time.Millisecond)
	if lm.Sample() != time.Millisecond {
		t.Fatal("latency model alias broken")
	}
	if dfi.ErrInconsistent == nil {
		t.Fatal("ErrInconsistent alias missing")
	}
}
