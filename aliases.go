package dfi

import (
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/pdp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/core/proxy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// Aliases re-exporting the library's core types so downstream users can name
// them without reaching into internal packages.

// Policy model.
type (
	// Action is a policy rule's disposition (Allow or Deny).
	Action = policy.Action
	// Rule is one policy rule: (Action, FlowProperties, Source, Destination).
	Rule = policy.Rule
	// RuleID identifies an inserted rule for revocation and flushing.
	RuleID = policy.RuleID
	// FlowProperties constrains EtherType and IP protocol.
	FlowProperties = policy.FlowProperties
	// EndpointSpec is one side of a rule: username, hostname, IP, port,
	// MAC, switch port and DPID, each value-or-wildcard.
	EndpointSpec = policy.EndpointSpec
	// FlowView is an enriched flow presented to policy evaluation.
	FlowView = policy.FlowView
	// EndpointAttrs is the enriched identity of one flow endpoint.
	EndpointAttrs = policy.EndpointAttrs
	// PolicyDecision is the policy manager's verdict for one flow.
	PolicyDecision = policy.Decision
	// PolicyManager stores rules and answers per-flow queries.
	PolicyManager = policy.Manager
)

// Policy actions and reserved ids.
const (
	ActionAllow = policy.ActionAllow
	ActionDeny  = policy.ActionDeny
	// DefaultDenyID tags flow rules from the implicit default deny.
	DefaultDenyID = policy.DefaultDenyID
)

// Entity resolution.
type (
	// EntityManager maintains identifier bindings and resolves packets to
	// high-level identities.
	EntityManager = entity.Manager
	// Location is a switch attachment point (DPID, port).
	Location = entity.Location
	// Observed is a packet endpoint's low-level identifiers.
	Observed = entity.Observed
	// Resolution is an enriched endpoint identity.
	Resolution = entity.Resolution
)

// ErrInconsistent reports spoofed identifiers (see EntityManager.Resolve).
var ErrInconsistent = entity.ErrInconsistent

// Control-plane components.
type (
	// PCP is the Policy Compilation Point.
	PCP = pcp.PCP
	// PCPDecision is the PCP's admission outcome for one flow.
	PCPDecision = pcp.Decision
	// Proxy is the controller-oblivious interposition proxy.
	Proxy = proxy.Proxy
)

// PDPs.
type (
	// Roster is the role structure RBAC PDPs enforce.
	Roster = pdp.Roster
	// AllowAllPDP is the no-access-control baseline PDP.
	AllowAllPDP = pdp.AllowAll
	// SRBACPDP is the static role-based access control PDP.
	SRBACPDP = pdp.SRBAC
	// ATRBACPDP is the authentication-triggered RBAC PDP.
	ATRBACPDP = pdp.ATRBAC
)

// Addressing.
type (
	// MAC is a 48-bit Ethernet address.
	MAC = netpkt.MAC
	// IPv4 is a 32-bit IPv4 address.
	IPv4 = netpkt.IPv4
)

// Clocks and latency models.
type (
	// Clock abstracts time (wall clock or simulated).
	Clock = simclock.Clock
	// LatencyModel samples simulated query costs.
	LatencyModel = store.LatencyModel
)

// Event bus.
type (
	// Bus is the pub/sub bus carrying sensor events.
	Bus = bus.Bus
	// BusEvent is one routed event.
	BusEvent = bus.Event
)

// Observability.
type (
	// MetricsRegistry holds a System's instruments and renders them in
	// Prometheus text exposition format (see System.Metrics, WithMetrics).
	MetricsRegistry = obs.Registry
)

// NewMetricsRegistry returns an empty metrics registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Convenience wildcard-field constructors for building EndpointSpecs.

// IPOf returns a pointer to ip for use in an EndpointSpec.
func IPOf(ip IPv4) *IPv4 { return &ip }

// MACOf returns a pointer to m for use in an EndpointSpec.
func MACOf(m MAC) *MAC { return &m }

// PortOf returns a pointer to p for use in an EndpointSpec.
func PortOf(p uint16) *uint16 { return &p }

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) { return netpkt.ParseMAC(s) }

// ParseIPv4 parses a dotted-quad IPv4 address.
func ParseIPv4(s string) (IPv4, error) { return netpkt.ParseIPv4(s) }
