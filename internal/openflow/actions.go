package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var errTooShort = errors.New("buffer too short")

// Action is an OpenFlow action.
type Action interface {
	// AppendTo append-encodes the action, including its common header,
	// onto dst and returns the extended slice.
	AppendTo(dst []byte) []byte
}

// Action type codes.
const (
	actionTypeOutput uint16 = 0
)

// ActionOutput forwards a packet out a port (ofp_action_output).
type ActionOutput struct {
	Port   uint32
	MaxLen uint16
}

var _ Action = (*ActionOutput)(nil)

// ControllerMaxLen asks the switch to send the full packet to the
// controller (OFPCML_NO_BUFFER).
const ControllerMaxLen uint16 = 0xffff

// AppendTo implements Action.
func (a *ActionOutput) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, 16) // pad bytes zeroed by grow
	binary.BigEndian.PutUint16(dst[n:n+2], actionTypeOutput)
	binary.BigEndian.PutUint16(dst[n+2:n+4], 16)
	binary.BigEndian.PutUint32(dst[n+4:n+8], a.Port)
	binary.BigEndian.PutUint16(dst[n+8:n+10], a.MaxLen)
	return dst
}

// ActionRaw preserves an unmodeled action byte-for-byte for passthrough.
type ActionRaw struct {
	Bytes []byte
}

var _ Action = (*ActionRaw)(nil)

// AppendTo implements Action.
func (a *ActionRaw) AppendTo(dst []byte) []byte { return appendBytes(dst, a.Bytes) }

func appendActions(dst []byte, actions []Action) []byte {
	for _, a := range actions {
		dst = a.AppendTo(dst)
	}
	return dst
}

// decodeActions parses a list of actions occupying exactly b.
func decodeActions(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("action header: %w", errTooShort)
		}
		atype := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, fmt.Errorf("action: bad length %d", alen)
		}
		switch atype {
		case actionTypeOutput:
			if alen != 16 {
				return nil, fmt.Errorf("output action: bad length %d", alen)
			}
			actions = append(actions, &ActionOutput{
				Port:   binary.BigEndian.Uint32(b[4:8]),
				MaxLen: binary.BigEndian.Uint16(b[8:10]),
			})
		default:
			actions = append(actions, &ActionRaw{Bytes: append([]byte(nil), b[:alen]...)})
		}
		b = b[alen:]
	}
	return actions, nil
}

// Instruction is an OpenFlow 1.3 flow instruction.
type Instruction interface {
	// AppendTo append-encodes the instruction, including its common
	// header, onto dst and returns the extended slice.
	AppendTo(dst []byte) []byte
}

// Instruction type codes.
const (
	instrTypeGotoTable    uint16 = 1
	instrTypeWriteActions uint16 = 3
	instrTypeApplyActions uint16 = 4
	instrTypeClearActions uint16 = 5
)

// InstructionGotoTable continues pipeline processing at another table. The
// DFI Proxy rewrites TableID in these when crossing between the controller's
// table space and the switch's (paper §IV-B).
type InstructionGotoTable struct {
	TableID uint8
}

var _ Instruction = (*InstructionGotoTable)(nil)

// AppendTo implements Instruction.
func (i *InstructionGotoTable) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, 8)
	binary.BigEndian.PutUint16(dst[n:n+2], instrTypeGotoTable)
	binary.BigEndian.PutUint16(dst[n+2:n+4], 8)
	dst[n+4] = i.TableID
	return dst
}

// InstructionApplyActions applies actions immediately.
type InstructionApplyActions struct {
	Actions []Action
}

var _ Instruction = (*InstructionApplyActions)(nil)

// AppendTo implements Instruction.
func (i *InstructionApplyActions) AppendTo(dst []byte) []byte {
	return appendActionInstr(dst, instrTypeApplyActions, i.Actions)
}

// InstructionWriteActions writes actions into the action set.
type InstructionWriteActions struct {
	Actions []Action
}

var _ Instruction = (*InstructionWriteActions)(nil)

// AppendTo implements Instruction.
func (i *InstructionWriteActions) AppendTo(dst []byte) []byte {
	return appendActionInstr(dst, instrTypeWriteActions, i.Actions)
}

// InstructionClearActions clears the action set.
type InstructionClearActions struct{}

var _ Instruction = (*InstructionClearActions)(nil)

// AppendTo implements Instruction.
func (i *InstructionClearActions) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, 8)
	binary.BigEndian.PutUint16(dst[n:n+2], instrTypeClearActions)
	binary.BigEndian.PutUint16(dst[n+2:n+4], 8)
	return dst
}

// InstructionRaw preserves an unmodeled instruction for passthrough.
type InstructionRaw struct {
	Bytes []byte
}

var _ Instruction = (*InstructionRaw)(nil)

// AppendTo implements Instruction.
func (i *InstructionRaw) AppendTo(dst []byte) []byte { return appendBytes(dst, i.Bytes) }

// appendActionInstr encodes an action-list instruction (apply/write),
// patching the instruction length after the actions are appended.
func appendActionInstr(dst []byte, itype uint16, actions []Action) []byte {
	start := len(dst)
	dst = grow(dst, 8) // header + 4 pad bytes, zeroed by grow
	dst = appendActions(dst, actions)
	binary.BigEndian.PutUint16(dst[start:start+2], itype)
	binary.BigEndian.PutUint16(dst[start+2:start+4], uint16(len(dst)-start))
	return dst
}

func appendInstructions(dst []byte, instrs []Instruction) []byte {
	for _, in := range instrs {
		dst = in.AppendTo(dst)
	}
	return dst
}

// decodeInstructions parses a list of instructions occupying exactly b.
func decodeInstructions(b []byte) ([]Instruction, error) {
	var instrs []Instruction
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("instruction header: %w", errTooShort)
		}
		itype := binary.BigEndian.Uint16(b[0:2])
		ilen := int(binary.BigEndian.Uint16(b[2:4]))
		if ilen < 8 || ilen > len(b) {
			return nil, fmt.Errorf("instruction: bad length %d", ilen)
		}
		switch itype {
		case instrTypeGotoTable:
			instrs = append(instrs, &InstructionGotoTable{TableID: b[4]})
		case instrTypeApplyActions:
			acts, err := decodeActions(b[8:ilen])
			if err != nil {
				return nil, fmt.Errorf("apply-actions: %w", err)
			}
			instrs = append(instrs, &InstructionApplyActions{Actions: acts})
		case instrTypeWriteActions:
			acts, err := decodeActions(b[8:ilen])
			if err != nil {
				return nil, fmt.Errorf("write-actions: %w", err)
			}
			instrs = append(instrs, &InstructionWriteActions{Actions: acts})
		case instrTypeClearActions:
			instrs = append(instrs, &InstructionClearActions{})
		default:
			instrs = append(instrs, &InstructionRaw{Bytes: append([]byte(nil), b[:ilen]...)})
		}
		b = b[ilen:]
	}
	return instrs, nil
}
