package testbed

import (
	"sync/atomic"

	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/switchsim"
	"github.com/dfi-sdn/dfi/internal/worm"
)

// The testbed is the worm's network environment.
var _ worm.Network = (*Testbed)(nil)

// Targets implements worm.Network: reconnaissance returns every other end
// host and server (control-plane hosts are out of the threat's scope).
func (tb *Testbed) Targets(host string) []string {
	targets := make([]string, 0, len(tb.hosts)-1)
	for _, n := range tb.Hosts() {
		if n != host {
			targets = append(targets, n)
		}
	}
	return targets
}

// Vulnerable implements worm.Network.
func (tb *Testbed) Vulnerable(dst string) bool {
	h, ok := tb.hosts[dst]
	return ok && h.Vulnerable
}

// CachedCredentials implements worm.Network. Servers are defended against
// credential theft by configuration (paper §V-B): nothing to dump.
func (tb *Testbed) CachedCredentials(host string) []string {
	h, ok := tb.hosts[host]
	if !ok || h.IsServer {
		return nil
	}
	return tb.dir.CachedCredentials(host)
}

// HasLocalAdmin implements worm.Network. Servers reject remote credential
// installs by configuration.
func (tb *Testbed) HasLocalAdmin(user, dst string) bool {
	h, ok := tb.hosts[dst]
	if !ok || h.IsServer {
		return false
	}
	return tb.dir.IsLocalAdmin(dst, user)
}

// TryConnect implements worm.Network: a TCP connection src→dst on port
// succeeds only if the SYN is admitted along the forward path and the
// SYN-ACK along the reverse path — each hop enforcing current DFI policy.
func (tb *Testbed) TryConnect(src, dst string, port uint16) bool {
	hs, ok := tb.hosts[src]
	if !ok {
		return false
	}
	hd, ok := tb.hosts[dst]
	if !ok {
		return false
	}
	// A stable per-pair ephemeral port keeps flow identity deterministic.
	srcPort := 49152 + uint16(pairHash(src, dst)&0x3fff)

	syn := netpkt.BuildTCP(hs.MAC, hd.MAC, hs.IP, hd.IP,
		&netpkt.TCPSegment{SrcPort: srcPort, DstPort: port, Flags: netpkt.TCPSyn})
	if !tb.admitPath(hs, hd, syn) {
		return false
	}
	synAck := netpkt.BuildTCP(hd.MAC, hs.MAC, hd.IP, hs.IP,
		&netpkt.TCPSegment{SrcPort: port, DstPort: srcPort, Flags: netpkt.TCPSyn | netpkt.TCPAck})
	return tb.admitPath(hd, hs, synAck)
}

// tryUDP checks a UDP request/response exchange src→dst on port (used for
// the core-service reachability the AT-RBAC baseline must preserve).
func (tb *Testbed) tryUDP(src, dst string, port uint16) bool {
	hs, ok := tb.hosts[src]
	if !ok {
		return false
	}
	hd, ok := tb.hosts[dst]
	if !ok {
		return false
	}
	srcPort := 49152 + uint16(pairHash(src, dst)&0x3fff)
	req := netpkt.BuildUDP(hs.MAC, hd.MAC, hs.IP, hd.IP,
		&netpkt.UDPDatagram{SrcPort: srcPort, DstPort: port})
	if !tb.admitPath(hs, hd, req) {
		return false
	}
	resp := netpkt.BuildUDP(hd.MAC, hs.MAC, hd.IP, hs.IP,
		&netpkt.UDPDatagram{SrcPort: port, DstPort: srcPort})
	return tb.admitPath(hd, hs, resp)
}

// Admissions reports how many PCP admission checks the testbed performed.
func (tb *Testbed) Admissions() uint64 { return atomic.LoadUint64(&tb.admissions) }

// hop is one switch traversal.
type hop struct {
	sw     *switchsim.Switch
	inPort uint32
}

// path returns the star-topology switch path from src to dst.
func (tb *Testbed) path(src, dst *Host) []hop {
	srcEdge := tb.switches[src.DPID]
	if src.DPID == dst.DPID {
		return []hop{{sw: srcEdge, inPort: src.Port}}
	}
	dstEdge := tb.switches[dst.DPID]
	return []hop{
		{sw: srcEdge, inPort: src.Port},
		// The core's ingress from an enclave uplink is numbered by the
		// enclave switch's DPID.
		{sw: tb.core, inPort: uint32(src.DPID)},
		{sw: dstEdge, inPort: uplinkPort},
	}
}

// admitPath walks the frame through each hop's pipeline. On a table-0 miss
// it runs the real PCP admission (entity resolution, policy query, rule
// compilation and installation) for that switch, exactly as the proxy
// would, then acts on the decision. Misses above table 0 belong to the
// forwarding controller and pass (routing on the star is static).
func (tb *Testbed) admitPath(src, dst *Host, frame []byte) bool {
	for _, h := range tb.path(src, dst) {
		outcome, table := h.sw.Evaluate(h.inPort, frame)
		switch outcome {
		case switchsim.OutcomeForward:
			continue
		case switchsim.OutcomeDrop:
			return false
		case switchsim.OutcomeMiss:
			if table > 0 {
				continue // the controller's tables: forwarding, not policy
			}
			if !tb.admitAt(h, frame) {
				return false
			}
		}
	}
	return true
}

// admitAt runs one synchronous PCP admission for a table-0 miss.
func (tb *Testbed) admitAt(h hop, frame []byte) bool {
	atomic.AddUint64(&tb.admissions, 1)
	allowed := false
	req := &pcp.Request{
		DPID: h.sw.DPID(),
		PacketIn: &openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			Reason:   openflow.PacketInReasonNoMatch,
			TableID:  0,
			Match:    &openflow.Match{InPort: openflow.U32(h.inPort)},
			Data:     frame,
		},
		Done: func(dec pcp.Decision) { allowed = dec.Allow },
	}
	tb.sys.PCP().Process(req)
	return allowed
}

func pairHash(a, b string) uint32 {
	var h uint32 = 2166136261
	for _, s := range []string{a, "→", b} {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
	}
	return h
}
