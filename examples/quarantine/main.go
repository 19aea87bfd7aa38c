// Quarantine-upon-compromise: one of the policy types the paper's
// architecture is built to host (§III-B). The policy document (policy.pol)
// lets engineering reach the servers; when a sensor flags a host as
// compromised, the bridge dfid's -quarantine-template runs instantiates the
// document's quarantine(h) template, whose higher-priority denies isolate
// the host — and because the Policy Manager's conflict check flushes the
// overridden allow rules' cached flow rules, even flows already in
// progress are cut mid-stream.
package main

import (
	_ "embed"
	"fmt"
	"io"
	"log"
	"slices"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/sensors"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

//go:embed policy.pol
var policySource string

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eventBus := bus.New()
	defer eventBus.Close()

	ctl := controller.New(controller.Config{})
	sys, err := dfi.New(
		dfi.WithBus(eventBus),
		dfi.WithPolicySource(policySource),
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			go func() { _ = ctl.Serve(b) }()
			return a, nil
		}),
	)
	if err != nil {
		return err
	}
	defer sys.Close()

	sw := switchsim.NewSwitch(switchsim.Config{DPID: 1})
	swEnd, dfiEnd := bufpipe.New()
	go func() { _ = sw.ServeControl(swEnd) }()
	go func() { _ = sys.ServeSwitch(dfiEnd) }()
	if !sw.WaitConfigured(5 * time.Second) {
		return fmt.Errorf("switch never configured")
	}

	// Compromise events instantiate quarantine(host); cleared events
	// retract it.
	cancel, _, err := sensors.AttachQuarantineTemplate(eventBus, sys.PolicyEngine(), "quarantine")
	if err != nil {
		return err
	}
	defer cancel()
	quarantined := func() bool {
		return slices.Contains(sys.PolicyEngine().Instances(), "quarantine(workstation)")
	}

	// Endpoints: alice (group eng) logged on at the workstation, and the
	// db server.
	wsMAC := netpkt.MustParseMAC("02:00:00:00:00:01")
	dbMAC := netpkt.MustParseMAC("02:00:00:00:00:02")
	wsIP := netpkt.MustParseIPv4("10.0.0.1")
	dbIP := netpkt.MustParseIPv4("10.0.0.2")
	sys.Entity().BindIPMAC(wsIP, wsMAC)
	sys.Entity().BindIPMAC(dbIP, dbMAC)
	sys.Entity().BindHostIP("workstation", wsIP)
	sys.Entity().BindHostIP("db", dbIP)
	sys.Entity().BindUserHost("alice", "workstation")

	received := make(chan struct{}, 64)
	if err := sw.AttachPort(1, func([]byte) {}); err != nil {
		return err
	}
	if err := sw.AttachPort(2, func([]byte) {
		select {
		case received <- struct{}{}:
		default:
		}
	}); err != nil {
		return err
	}

	packet := netpkt.BuildTCP(wsMAC, dbMAC, wsIP, dbIP,
		&netpkt.TCPSegment{SrcPort: 55000, DstPort: 5432, Flags: netpkt.TCPSyn})

	fmt.Println("baseline: engineering may reach the servers — the workstation alice uses reaches db")
	sw.Inject(1, packet)
	if !waitOne(received, 2*time.Second) {
		return fmt.Errorf("baseline flow was not delivered")
	}
	fmt.Printf("   delivered; %d flow rule(s) cached in table 0\n\n", sw.FlowCount(0))

	fmt.Println("an endpoint sensor flags the workstation as compromised...")
	if err := eventBus.Publish(bus.Event{
		Topic:   sensors.TopicCompromise,
		Payload: sensors.CompromiseEvent{Host: "workstation"},
	}); err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Second)
	for !quarantined() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !quarantined() {
		return fmt.Errorf("quarantine template never instantiated")
	}
	// The conflict check flushed the cached allow rules for the host.
	time.Sleep(100 * time.Millisecond)
	fmt.Println("   quarantine(workstation) installed its deny rules and flushed cached flows")

	drain(received)
	sw.Inject(1, packet) // the very same flow
	if waitOne(received, 300*time.Millisecond) {
		return fmt.Errorf("quarantined host still reached the database")
	}
	fmt.Println("   the in-progress flow is now cut: packets stop at table 0")

	fmt.Println("\nincident response clears the host...")
	if err := eventBus.Publish(bus.Event{
		Topic:   sensors.TopicCompromise,
		Payload: sensors.CompromiseEvent{Host: "workstation", Cleared: true},
	}); err != nil {
		return err
	}
	deadline = time.Now().Add(2 * time.Second)
	for quarantined() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	drain(received)
	sw.Inject(1, packet)
	if !waitOne(received, 2*time.Second) {
		return fmt.Errorf("flow still blocked after quarantine release")
	}
	fmt.Println("   connectivity restored: quarantine OK")
	return nil
}

func waitOne(ch chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func drain(ch chan struct{}) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
