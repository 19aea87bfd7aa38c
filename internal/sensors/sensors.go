// Package sensors defines DFI's identifier-binding and security event
// types and the sensors that produce them (paper §IV-A). Sensors collect
// bindings only from authoritative sources — DNS for hostname↔IP, DHCP for
// IP↔MAC, endpoint process logs aggregated by the SIEM for user↔host — so
// attackers cannot poison DFI's view of the network from end hosts.
package sensors

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// Bus topics for sensor events.
const (
	TopicDNS        = "sensor.dns"
	TopicDHCP       = "sensor.dhcp"
	TopicAuth       = "sensor.auth"
	TopicProcess    = "sensor.process"
	TopicCompromise = "sensor.compromise"
)

// DNSBinding reports a hostname↔IP binding change from the DNS server.
type DNSBinding struct {
	Host    string
	IP      netpkt.IPv4
	Removed bool
}

// DHCPBinding reports an IP↔MAC lease change from the DHCP server.
type DHCPBinding struct {
	IP      netpkt.IPv4
	MAC     netpkt.MAC
	Removed bool
}

// AuthEvent reports a derived user log-on or log-off on a host.
type AuthEvent struct {
	User     string
	Host     string
	LoggedOn bool
}

// ProcessEvent is a raw endpoint log record: a process was created
// (Delta=+1) or terminated (Delta=-1) for a user on a host.
type ProcessEvent struct {
	User  string
	Host  string
	Delta int
}

// CompromiseEvent reports that an endpoint was flagged as compromised
// (consumed by the quarantine PDP).
type CompromiseEvent struct {
	Host string
	// Cleared reports the quarantine being lifted.
	Cleared bool
}

// DNSSensor publishes DNS bindings collected from the authoritative DNS
// server.
type DNSSensor struct {
	bus *bus.Bus
}

// NewDNSSensor returns a sensor publishing on b.
func NewDNSSensor(b *bus.Bus) *DNSSensor { return &DNSSensor{bus: b} }

// Record publishes one binding observation.
func (s *DNSSensor) Record(host string, ip netpkt.IPv4, removed bool) {
	_ = s.bus.Publish(bus.Event{Topic: TopicDNS, Payload: DNSBinding{Host: host, IP: ip, Removed: removed}})
}

// DHCPSensor publishes lease bindings collected from the authoritative
// DHCP server.
type DHCPSensor struct {
	bus *bus.Bus
}

// NewDHCPSensor returns a sensor publishing on b.
func NewDHCPSensor(b *bus.Bus) *DHCPSensor { return &DHCPSensor{bus: b} }

// Record publishes one lease observation.
func (s *DHCPSensor) Record(ip netpkt.IPv4, mac netpkt.MAC, removed bool) {
	_ = s.bus.Publish(bus.Event{Topic: TopicDHCP, Payload: DHCPBinding{IP: ip, MAC: mac, Removed: removed}})
}

// SIEMSensor implements the paper's user log-on/log-off detection (§IV-A):
// directory services do not track who is logged on, so the sensor counts
// running processes per (user, host) from endpoint logs aggregated by the
// SIEM. A count rising from zero is a log-on; falling to zero is a log-off.
type SIEMSensor struct {
	bus *bus.Bus
	sub *bus.Subscription

	mu     sync.Mutex
	counts map[userHost]int
}

type userHost struct {
	user string
	host string
}

// NewSIEMSensor returns a sensor consuming TopicProcess and publishing
// TopicAuth on b.
func NewSIEMSensor(b *bus.Bus) (*SIEMSensor, error) {
	s := &SIEMSensor{bus: b, counts: make(map[userHost]int)}
	sub, err := b.Subscribe(TopicProcess, func(ev bus.Event) {
		pe, ok := ev.Payload.(ProcessEvent)
		if !ok {
			return
		}
		s.Ingest(pe)
	})
	if err != nil {
		return nil, fmt.Errorf("siem sensor: %w", err)
	}
	s.sub = sub
	return s, nil
}

// Ingest applies one process event and publishes any derived auth event.
func (s *SIEMSensor) Ingest(pe ProcessEvent) {
	key := userHost{user: pe.User, host: pe.Host}
	s.mu.Lock()
	before := s.counts[key]
	after := before + pe.Delta
	if after < 0 {
		after = 0
	}
	if after == 0 {
		delete(s.counts, key)
	} else {
		s.counts[key] = after
	}
	s.mu.Unlock()

	switch {
	case before == 0 && after > 0:
		_ = s.bus.Publish(bus.Event{Topic: TopicAuth, Payload: AuthEvent{User: pe.User, Host: pe.Host, LoggedOn: true}})
	case before > 0 && after == 0:
		_ = s.bus.Publish(bus.Event{Topic: TopicAuth, Payload: AuthEvent{User: pe.User, Host: pe.Host, LoggedOn: false}})
	}
}

// ProcessCount reports the current count for a (user, host) pair.
func (s *SIEMSensor) ProcessCount(user, host string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[userHost{user: user, host: host}]
}

// Close cancels the sensor's subscription.
func (s *SIEMSensor) Close() {
	if s.sub != nil {
		s.sub.Cancel()
	}
}

// AttachEntityManager subscribes em to the identifier-binding topics so
// that sensor events keep its bindings current. It returns a cancel
// function detaching the subscriptions.
func AttachEntityManager(b *bus.Bus, em *entity.Manager) (func(), error) {
	return AttachEntityManagerTraced(b, em, nil)
}

// AttachEntityManagerTraced is AttachEntityManager with causal tracing:
// each binding update is committed to spans as an ("entity",
// "binding_update") span parented on the delivering event's publish span,
// linking the sensor event to the entity-manager mutation it caused. A
// nil span store traces nothing.
func AttachEntityManagerTraced(b *bus.Bus, em *entity.Manager, spans *obs.SpanStore) (func(), error) {
	var subs []*bus.Subscription
	cancel := func() {
		for _, s := range subs {
			s.Cancel()
		}
	}

	dns, err := b.Subscribe(TopicDNS, func(ev bus.Event) {
		bind, ok := ev.Payload.(DNSBinding)
		if !ok {
			return
		}
		obs.WithSpan(spans, ev.Trace, obs.CompEntity, "binding_update",
			fmt.Sprintf("dns host-ip %s=%s removed=%t", bind.Host, bind.IP, bind.Removed),
			func(obs.SpanContext) {
				if bind.Removed {
					em.UnbindHostIP(bind.Host, bind.IP)
				} else {
					em.BindHostIP(bind.Host, bind.IP)
				}
			})
	})
	if err != nil {
		return nil, fmt.Errorf("attach entity manager: %w", err)
	}
	subs = append(subs, dns)

	dhcp, err := b.Subscribe(TopicDHCP, func(ev bus.Event) {
		bind, ok := ev.Payload.(DHCPBinding)
		if !ok {
			return
		}
		obs.WithSpan(spans, ev.Trace, obs.CompEntity, "binding_update",
			fmt.Sprintf("dhcp ip-mac %s=%s removed=%t", bind.IP, bind.MAC, bind.Removed),
			func(obs.SpanContext) {
				if bind.Removed {
					em.UnbindIPMAC(bind.IP, bind.MAC)
				} else {
					em.BindIPMAC(bind.IP, bind.MAC)
				}
			})
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("attach entity manager: %w", err)
	}
	subs = append(subs, dhcp)

	auth, err := b.Subscribe(TopicAuth, func(ev bus.Event) {
		ae, ok := ev.Payload.(AuthEvent)
		if !ok {
			return
		}
		obs.WithSpan(spans, ev.Trace, obs.CompEntity, "binding_update",
			fmt.Sprintf("auth user-host %s@%s on=%t", ae.User, ae.Host, ae.LoggedOn),
			func(obs.SpanContext) {
				if ae.LoggedOn {
					em.BindUserHost(ae.User, ae.Host)
				} else {
					em.UnbindUserHost(ae.User, ae.Host)
				}
			})
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("attach entity manager: %w", err)
	}
	subs = append(subs, auth)

	return cancel, nil
}

// AttachQuarantineTemplate bridges compromise events to a policy-language
// template: each CompromiseEvent instantiates template(host) on the
// engine (a deny set compiled incrementally into the rule base, landing as
// one policy apply in the event's trace) and each Cleared event retracts
// that instance. Instantiation failures — e.g. the
// loaded document carries no such template — are counted by the returned
// errs function rather than dropping the subscription. The cancel
// function detaches the bridge.
func AttachQuarantineTemplate(b *bus.Bus, eng *compile.Engine, template string) (cancel func(), errs func() uint64, err error) {
	var failed atomic.Uint64
	sub, err := b.Subscribe(TopicCompromise, func(ev bus.Event) {
		ce, ok := ev.Payload.(CompromiseEvent)
		if !ok {
			return
		}
		var ierr error
		if ce.Cleared {
			_, ierr = eng.Retract(ev.Trace, template, ce.Host)
		} else {
			_, ierr = eng.Instantiate(ev.Trace, template, ce.Host)
		}
		if ierr != nil {
			failed.Add(1)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("attach quarantine template: %w", err)
	}
	return sub.Cancel, failed.Load, nil
}

// RegisterWireTypes registers every sensor event type with a bus codec so
// that remotely published events (bus.RemotePublisher → bus.ServeSink)
// arrive with their concrete types. Both ends of a remote link must call
// this.
func RegisterWireTypes(codec *bus.Codec) {
	codec.Register("dns-binding", DNSBinding{})
	codec.Register("dhcp-binding", DHCPBinding{})
	codec.Register("auth-event", AuthEvent{})
	codec.Register("process-event", ProcessEvent{})
	codec.Register("compromise-event", CompromiseEvent{})
}
