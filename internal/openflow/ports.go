package openflow

import (
	"encoding/binary"
	"fmt"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// Port-status reasons (ofp_port_reason).
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// Port state bits (ofp_port_state).
const (
	PortStateLinkDown uint32 = 1 << 0
	PortStateBlocked  uint32 = 1 << 1
	PortStateLive     uint32 = 1 << 2
)

// PortDesc describes one switch port (ofp_port).
type PortDesc struct {
	PortNo uint32
	HWAddr netpkt.MAC
	Name   string // at most 15 bytes on the wire
	Config uint32
	State  uint32
}

const portDescLen = 64

func (p *PortDesc) appendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, portDescLen)
	b := dst[n:]
	binary.BigEndian.PutUint32(b[0:4], p.PortNo)
	copy(b[8:14], p.HWAddr[:])
	name := p.Name
	if len(name) > 15 {
		name = name[:15]
	}
	copy(b[16:31], name)
	binary.BigEndian.PutUint32(b[32:36], p.Config)
	binary.BigEndian.PutUint32(b[36:40], p.State)
	// Feature/speed fields are zero: the software switch does not model
	// link speeds.
	return dst
}

func unmarshalPortDesc(b []byte) (*PortDesc, error) {
	if len(b) < portDescLen {
		return nil, fmt.Errorf("port desc: %w", errTooShort)
	}
	p := &PortDesc{
		PortNo: binary.BigEndian.Uint32(b[0:4]),
		Config: binary.BigEndian.Uint32(b[32:36]),
		State:  binary.BigEndian.Uint32(b[36:40]),
	}
	copy(p.HWAddr[:], b[8:14])
	name := b[16:32]
	for i, c := range name {
		if c == 0 {
			name = name[:i]
			break
		}
	}
	p.Name = string(name)
	return p, nil
}

// PortStatus announces a port change to the control plane
// (ofp_port_status). The DFI Proxy relays these unmodified; the controller
// reacts by purging stale learned locations.
type PortStatus struct {
	Reason uint8
	Desc   PortDesc
}

var _ Message = (*PortStatus)(nil)

// Type implements Message.
func (*PortStatus) Type() MessageType { return TypePortStatus }

// AppendBody implements Message.
func (p *PortStatus) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 8) // reason + pad
	dst[n] = p.Reason
	return p.Desc.appendTo(dst), nil
}

// UnmarshalBody implements Message.
func (p *PortStatus) UnmarshalBody(b []byte) error {
	if len(b) < 8+portDescLen {
		return fmt.Errorf("port status: %w", errTooShort)
	}
	p.Reason = b[0]
	desc, err := unmarshalPortDesc(b[8:])
	if err != nil {
		return err
	}
	p.Desc = *desc
	return nil
}

// TableMod configures a flow table (ofp_table_mod). DFI's proxy shifts its
// table id like any other table reference.
type TableMod struct {
	TableID uint8
	Config  uint32
}

var _ Message = (*TableMod)(nil)

// Type implements Message.
func (*TableMod) Type() MessageType { return TypeTableMod }

// AppendBody implements Message.
func (t *TableMod) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 8)
	dst[n] = t.TableID
	binary.BigEndian.PutUint32(dst[n+4:n+8], t.Config)
	return dst, nil
}

// UnmarshalBody implements Message.
func (t *TableMod) UnmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("table mod: %w", errTooShort)
	}
	t.TableID = b[0]
	t.Config = binary.BigEndian.Uint32(b[4:8])
	return nil
}
