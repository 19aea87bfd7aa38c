package pcp

import (
	"math/rand"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// randomCompileKey draws a flow key of one of the shapes admission sees:
// TCP, UDP, ICMP (IPv4 without L4 ports), ARP, or a non-IP EtherType.
func randomCompileKey(rng *rand.Rand) netpkt.FlowKey {
	var k netpkt.FlowKey
	rng.Read(k.EthSrc[:])
	rng.Read(k.EthDst[:])
	rng.Read(k.IPSrc[:])
	rng.Read(k.IPDst[:])
	switch rng.Intn(5) {
	case 0, 1:
		k.EtherType, k.HasIP, k.HasL4 = netpkt.EtherTypeIPv4, true, true
		k.IPProto = netpkt.ProtoTCP
		if rng.Intn(2) == 0 {
			k.IPProto = netpkt.ProtoUDP
		}
		k.L4Src, k.L4Dst = uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
	case 2:
		k.EtherType, k.HasIP, k.IPProto = netpkt.EtherTypeIPv4, true, netpkt.ProtoICMP
	case 3:
		k.EtherType, k.HasIP = netpkt.EtherTypeARP, true
	default:
		k.EtherType = 0x88cc // LLDP: no IP identifiers
		k.IPSrc, k.IPDst = netpkt.IPv4{}, netpkt.IPv4{}
	}
	return k
}

// wantWidened is the reference for a widening level: the exact match minus
// the dropped fields. Ingress port, MACs, EtherType and IP protocol stay
// pinned at every level; IPs go with drop.ips, L4 ports with drop.ports.
func wantWidened(k netpkt.FlowKey, inPort uint32, drop widenDrop) *openflow.Match {
	m := openflow.ExactMatchFor(k, inPort)
	if drop.ips {
		m.IPv4Src, m.IPv4Dst = nil, nil
	}
	if drop.ports {
		m.TCPSrc, m.TCPDst, m.UDPSrc, m.UDPDst = nil, nil, nil, nil
	}
	return m
}

// TestPropertyCompileBufIsTheOneCompiler: the pooled compiler builds every
// table-0 flow-mod. Over random TCP/UDP/ICMP/ARP/non-IP keys, allow and
// deny, filled into one reused (dirty) buffer: the exact level's match
// equals openflow.ExactMatchFor, each widening level pins exactly the
// widened field set, the flow-mod carries the rule cookie, priority and
// decision-dependent timeout and instructions, and strictDelete names the
// same entry.
func TestPropertyCompileBufIsTheOneCompiler(t *testing.T) {
	p, _, _, _ := newEnv(t)
	rng := rand.New(rand.NewSource(5))
	levels := append([]widenDrop{{}}, widenLevels...)
	var cb compileBuf
	for i := 0; i < 4000; i++ {
		key := randomCompileKey(rng)
		inPort := uint32(1 + rng.Intn(48))
		dec := Decision{Allow: rng.Intn(2) == 0, RuleID: policy.RuleID(1 + rng.Intn(1000))}
		if rng.Intn(4) == 0 {
			dec.RuleID = policy.DefaultDenyID
		}
		for _, drop := range levels {
			if drop != (widenDrop{}) && (key.EtherType != netpkt.EtherTypeIPv4 || !key.HasIP) {
				continue // widening applies to IPv4 flows only
			}
			cb.fill(p, key, inPort, dec, drop)
			want := wantWidened(key, inPort, drop)
			if drop == (widenDrop{}) && !want.Equal(openflow.ExactMatchFor(key, inPort)) {
				t.Fatal("reference exact level differs from ExactMatchFor")
			}
			fm := &cb.fm
			if fm.Match != &cb.match || !fm.Match.Equal(want) {
				t.Fatalf("key %v level %+v: match %v, want %v", key, drop, fm.Match, want)
			}
			if fm.Command != openflow.FlowModAdd || fm.TableID != 0 ||
				fm.Cookie != uint64(dec.RuleID) || fm.CookieMask != 0 ||
				fm.Priority != rulePriority || fm.BufferID != openflow.NoBuffer ||
				fm.OutPort != openflow.PortAny || fm.OutGroup != 0xffffffff ||
				fm.HardTimeout != 0 || fm.Flags != 0 {
				t.Fatalf("add header = %+v", fm)
			}
			if dec.Allow {
				gt, ok := fm.Instructions[0].(*openflow.InstructionGotoTable)
				if fm.IdleTimeout != p.cfg.AllowIdleTimeoutSec || len(fm.Instructions) != 1 || !ok || gt.TableID != 1 {
					t.Fatalf("allow rule = %+v, want goto table 1 with the allow idle timeout", fm)
				}
			} else if fm.IdleTimeout != p.cfg.DenyIdleTimeoutSec || len(fm.Instructions) != 0 {
				t.Fatalf("deny rule = %+v, want no instructions and the deny idle timeout", fm)
			}

			cb.strictDelete()
			if fm.Command != openflow.FlowModDeleteStrict || fm.Cookie != uint64(dec.RuleID) ||
				fm.CookieMask != ^uint64(0) || fm.Priority != rulePriority || fm.TableID != 0 ||
				fm.OutPort != openflow.PortAny || fm.OutGroup != 0xffffffff ||
				fm.IdleTimeout != 0 || len(fm.Instructions) != 0 || !fm.Match.Equal(want) {
				t.Fatalf("strict delete = %+v, want the entry's cookie, priority and match", fm)
			}
		}
	}
}
