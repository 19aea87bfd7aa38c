// Package testbed implements the paper's security-evaluation environment
// (§V-B) as a deterministic discrete-event simulation: a small enterprise
// of 86 Windows end hosts and 6 servers on 14 OpenFlow switches in a star
// topology (one core, 13 enclave switches: nine 9-host departments, one
// 5-host department, three server enclaves), an Active Directory domain
// with per-host primary users and department-wide Local Administrator
// grants, day-long per-user log-on/log-off scripts, and DFI enforcing one
// of three conditions: no access control (Baseline), static RBAC (S-RBAC)
// or authentication-triggered RBAC (AT-RBAC).
//
// The control plane is the one dfi.New assembles, on the simulated clock.
// The data plane is real: every reachability check builds an Ethernet/IPv4
// frame, walks the switchsim pipeline at each hop of the star, and — on a
// table-0 miss — runs the System's PCP admission path (entity resolution,
// policy query, exact-match rule compilation and installation), so policy
// is enforced at each hop exactly as in the paper's deployment.
package testbed

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pdp"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/sensors"
	"github.com/dfi-sdn/dfi/internal/services"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/switchsim"
	"github.com/dfi-sdn/dfi/internal/worm"
)

// Condition selects the access-control policy under test.
type Condition int

// The paper's three evaluation conditions.
const (
	ConditionBaseline Condition = iota + 1
	ConditionSRBAC
	ConditionATRBAC
)

// String renders the condition name as the paper writes it.
func (c Condition) String() string {
	switch c {
	case ConditionBaseline:
		return "Baseline"
	case ConditionSRBAC:
		return "S-RBAC"
	case ConditionATRBAC:
		return "AT-RBAC"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Host is one endpoint of the testbed.
type Host struct {
	Name        string
	Enclave     string
	MAC         netpkt.MAC
	IP          netpkt.IPv4
	DPID        uint64
	Port        uint32
	IsServer    bool
	PrimaryUser string
	Vulnerable  bool
}

// Config parameterizes a testbed build.
type Config struct {
	Condition Condition
	// Seed drives every random choice (vulnerable hosts, user scripts,
	// worm shuffles); same seed → identical run.
	Seed int64
	// Epoch is midnight of the simulated day (default 2019-03-01 UTC).
	Epoch time.Time
	// WormParams tune the surrogate (default worm.DefaultParams).
	WormParams worm.Params
	// QuarantineDelay, when positive, models an incident-response team:
	// each infection is detected and the host isolated this long after it
	// is compromised, by instantiating the policy-language template
	// quarantine(host) — the template dfid's -quarantine-template runs.
	// Zero disables the model.
	// This quantifies the paper's closing claim that AT-RBAC's slowdown
	// "could provide additional time for an incident response team to be
	// notified and isolate infected hosts".
	QuarantineDelay time.Duration
	// Metrics, when non-nil, is the registry the testbed's System
	// registers its instruments with, so scenario harnesses can read
	// time-to-enforcement and admission-latency histograms out of a
	// testbed run. Nil gives the System a private registry.
	Metrics *obs.Registry
}

const (
	coreDPID     = 100
	uplinkPort   = 100
	numDepts     = 9
	hostsPerDept = 9
	smallDeptN   = 5
)

// quarantinePolicy is the incident-response document: the quarantine
// template outranks every condition's PDP.
const quarantinePolicy = "pdp quarantine priority 1000\n" +
	"template quarantine(h) { deny from host $h; deny to host $h }\n"

// Testbed is a built evaluation environment.
type Testbed struct {
	cfg   Config
	clock *simclock.Simulated
	rng   *rand.Rand

	dir  *services.Directory
	dns  *services.DNSServer
	dhcp *services.DHCPServer

	sys *dfi.System
	erm *entity.Manager

	core     *switchsim.Switch
	switches map[uint64]*switchsim.Switch

	hosts  map[string]*Host
	byIP   map[netpkt.IPv4]*Host
	roster pdp.Roster

	atrbac *pdp.ATRBAC

	scripts map[string][]Interval // user -> logged-on intervals

	outbreak *worm.Outbreak

	// admissions counts PCP admission checks (for reporting).
	admissions uint64
}

// Interval is a logged-on period as offsets from the epoch (midnight).
type Interval struct {
	Start time.Duration
	End   time.Duration
}

// New builds the testbed for the given configuration. Close releases it.
func New(cfg Config) (*Testbed, error) {
	if cfg.Condition == 0 {
		cfg.Condition = ConditionBaseline
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.WormParams == (worm.Params{}) {
		cfg.WormParams = worm.DefaultParams()
	}
	tb := &Testbed{
		cfg:      cfg,
		clock:    simclock.NewSimulated(cfg.Epoch),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		dir:      services.NewDirectory(),
		hosts:    make(map[string]*Host),
		byIP:     make(map[netpkt.IPv4]*Host),
		switches: make(map[uint64]*switchsim.Switch),
		scripts:  make(map[string][]Interval),
	}
	// The testbed admits through the System's PCP directly and never
	// serves a switch connection, so the controller is unreachable.
	opts := []dfi.Option{
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			return nil, errors.New("testbed: no controller")
		}),
		dfi.WithClock(tb.clock),
	}
	if cfg.Metrics != nil {
		opts = append(opts, dfi.WithMetrics(cfg.Metrics))
	}
	if cfg.QuarantineDelay > 0 {
		opts = append(opts, dfi.WithPolicySource(quarantinePolicy))
	}
	sys, err := dfi.New(opts...)
	if err != nil {
		return nil, err
	}
	tb.sys = sys
	tb.erm = sys.Entity()
	// Authoritative services feed the ERM directly (the simulation's
	// synchronous stand-in for the bus-attached sensors).
	tb.dns = services.NewDNSServer(func(h string, ip netpkt.IPv4, removed bool) {
		if removed {
			tb.erm.UnbindHostIP(h, ip)
		} else {
			tb.erm.BindHostIP(h, ip)
		}
	})
	tb.dhcp = services.NewDHCPServer(netpkt.MustParseIPv4("10.10.0.10"), 1024,
		func(ip netpkt.IPv4, mac netpkt.MAC, removed bool) {
			if removed {
				tb.erm.UnbindIPMAC(ip, mac)
			} else {
				tb.erm.BindIPMAC(ip, mac)
			}
		})

	tb.buildTopology()
	tb.buildPopulation()
	if err := tb.installCondition(); err != nil {
		sys.Close()
		return nil, err
	}
	tb.buildScripts()
	tb.outbreak = worm.NewOutbreak(cfg.WormParams, tb, tb.clock, cfg.Seed^0x5eed)
	if cfg.QuarantineDelay > 0 {
		// The same call sensors.AttachQuarantineTemplate makes for a
		// compromise event, made on the simulated clock rather than from
		// the bus so a run stays deterministic. It cannot fail here: New
		// compiled the template, and its one argument is a host name.
		engine, delay := sys.PolicyEngine(), cfg.QuarantineDelay
		tb.outbreak.SetOnInfect(func(host string) {
			tb.clock.ScheduleAfter(delay, func() {
				_, _ = engine.Instantiate(obs.SpanContext{}, "quarantine", host)
			})
		})
	}
	return tb, nil
}

// Close stops the testbed's System.
func (tb *Testbed) Close() { tb.sys.Close() }

// Quarantined reports whether incident response has isolated host (always
// false when QuarantineDelay is unset).
func (tb *Testbed) Quarantined(host string) bool {
	return slices.Contains(tb.sys.PolicyEngine().Instances(),
		compile.InstanceKey("quarantine", []string{host}))
}

// buildTopology creates the 14-switch star and registers them with the PCP.
func (tb *Testbed) buildTopology() {
	tb.core = switchsim.NewSwitch(switchsim.Config{DPID: coreDPID, Clock: tb.clock})
	tb.sys.PCP().AttachSwitch(coreDPID, tb.core)
	for dpid := uint64(1); dpid <= 13; dpid++ {
		sw := switchsim.NewSwitch(switchsim.Config{DPID: dpid, Clock: tb.clock})
		tb.switches[dpid] = sw
		tb.sys.PCP().AttachSwitch(dpid, sw)
	}
}

// buildPopulation creates enclaves, hosts, users, grants, leases and DNS
// records. Enclave switches 1–9 hold the nine-host departments, switch 10
// the five-host department, switches 11–13 the server enclaves.
func (tb *Testbed) buildPopulation() {
	addHost := func(name, enclave string, dpid uint64, port uint32, isServer bool, primaryUser string) *Host {
		mac := netpkt.MAC{0x02, 0x10, byte(dpid), 0, 0, byte(port)}
		ip, err := tb.dhcp.Lease(mac)
		if err != nil {
			panic(fmt.Sprintf("testbed DHCP pool exhausted: %v", err)) // sized at build; cannot happen
		}
		tb.dns.Register(name, ip)
		h := &Host{
			Name: name, Enclave: enclave, MAC: mac, IP: ip,
			DPID: dpid, Port: port, IsServer: isServer, PrimaryUser: primaryUser,
		}
		tb.hosts[name] = h
		tb.byIP[ip] = h
		tb.dir.AddHost(name, enclave, primaryUser)
		return h
	}

	// Departments.
	for d := 1; d <= numDepts+1; d++ {
		enclave := fmt.Sprintf("dept-%02d", d)
		n := hostsPerDept
		if d == numDepts+1 {
			n = smallDeptN
		}
		dpid := uint64(d)
		var deptUsers []string
		for i := 1; i <= n; i++ {
			name := fmt.Sprintf("d%02d-h%d", d, i)
			user := fmt.Sprintf("u-%s", name)
			deptUsers = append(deptUsers, user)
			tb.dir.AddUser(user, enclave)
			addHost(name, enclave, dpid, uint32(i), false, user)
			// The primary user's credentials are cached from historical
			// log-ons; this is what credential theft dumps.
			if err := tb.dir.CacheCredential(name, user); err != nil {
				panic(err) // host was just added
			}
		}
		// Everyone in the department has Local Administrator on every
		// department host (paper §V-B).
		for _, hostName := range tb.dir.HostsInEnclave(enclave) {
			for _, u := range deptUsers {
				if err := tb.dir.GrantLocalAdmin(hostName, u); err != nil {
					panic(err)
				}
			}
		}
	}

	// Servers: 6 across 3 server enclaves, no primary users.
	serverNames := []string{"srv-ad", "srv-mail", "srv-web", "srv-file", "srv-db", "srv-backup"}
	for i, name := range serverNames {
		dpid := uint64(11 + i/2)
		enclave := fmt.Sprintf("srv-enclave-%d", 11+i/2-10)
		srv := addHost(name, enclave, dpid, uint32(i%2+1), true, "")
		srv.Vulnerable = true // all servers are vulnerable (paper §V-B)
	}

	// One vulnerable end host per departmental enclave (10/86, within the
	// patch-compliance range the paper cites).
	for d := 1; d <= numDepts+1; d++ {
		enclave := fmt.Sprintf("dept-%02d", d)
		hosts := tb.dir.HostsInEnclave(enclave)
		pick := hosts[tb.rng.Intn(len(hosts))]
		tb.hosts[pick].Vulnerable = true
	}

	// Roster for the RBAC PDPs.
	tb.roster = pdp.Roster{EnclaveOf: make(map[string]string)}
	for name, h := range tb.hosts {
		tb.roster.EnclaveOf[name] = h.Enclave
		if h.IsServer {
			tb.roster.Servers = append(tb.roster.Servers, name)
		}
	}
	sort.Strings(tb.roster.Servers)
	tb.roster.CoreServices = []pdp.ServiceEndpoint{
		{Host: "srv-ad", Proto: netpkt.ProtoUDP, Port: 53}, // DNS
		{Host: "srv-ad", Proto: netpkt.ProtoUDP, Port: 67}, // DHCP
		{Host: "srv-ad", Proto: netpkt.ProtoTCP, Port: 88}, // Kerberos/AD
	}
}

// installCondition registers and installs the PDP for the configured
// condition.
func (tb *Testbed) installCondition() error {
	switch tb.cfg.Condition {
	case ConditionBaseline:
		allowAll, err := pdp.NewAllowAll(tb.sys.Policy())
		if err != nil {
			return err
		}
		return allowAll.Enable()
	case ConditionSRBAC:
		srbac, err := pdp.NewSRBAC(tb.sys.Policy(), tb.roster)
		if err != nil {
			return err
		}
		_, err = srbac.Install()
		return err
	case ConditionATRBAC:
		atrbac, err := pdp.NewATRBAC(tb.sys.Policy(), tb.roster)
		if err != nil {
			return err
		}
		if err := atrbac.Start(nil); err != nil {
			return err
		}
		tb.atrbac = atrbac
		return nil
	default:
		return fmt.Errorf("testbed: unknown condition %v", tb.cfg.Condition)
	}
}

// Host returns a host by name.
func (tb *Testbed) Host(name string) (*Host, bool) {
	h, ok := tb.hosts[name]
	return h, ok
}

// Hosts returns all host names, sorted.
func (tb *Testbed) Hosts() []string {
	names := make([]string, 0, len(tb.hosts))
	for n := range tb.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EndHosts returns all non-server host names, sorted.
func (tb *Testbed) EndHosts() []string {
	var names []string
	for n, h := range tb.hosts {
		if !h.IsServer {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// VulnerableHosts returns the exploitable hosts, sorted.
func (tb *Testbed) VulnerableHosts() []string {
	var names []string
	for n, h := range tb.hosts {
		if h.Vulnerable {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// logon applies a log-on: credentials get cached on the machine, the ERM
// binding updates, and (under AT-RBAC) the PDP reacts.
func (tb *Testbed) logon(user, host string) {
	_ = tb.dir.CacheCredential(host, user)
	tb.erm.BindUserHost(user, host)
	if tb.atrbac != nil {
		tb.atrbac.HandleAuth(sensors.AuthEvent{User: user, Host: host, LoggedOn: true})
	}
}

func (tb *Testbed) logoff(user, host string) {
	tb.erm.UnbindUserHost(user, host)
	if tb.atrbac != nil {
		tb.atrbac.HandleAuth(sensors.AuthEvent{User: user, Host: host, LoggedOn: false})
	}
}

// LoggedOn reports whether any user is currently logged onto host.
func (tb *Testbed) LoggedOn(host string) bool {
	return len(tb.erm.UsersOn(host)) > 0
}
