package mote

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Checkpoint is the machine state persisted to non-volatile storage at a
// safe point: everything needed to resume execution after a power failure
// without replaying the epoch — CPU registers, RAM, the predictor's
// learned state, and the durable-trace watermark that tells salvage where
// the committed journal ends. The image is written with a versioned,
// CRC-guarded codec ("CTCK"): flash writes on a dying capacitor tear, and
// a torn image must fail decode rather than restore garbage.
type Checkpoint struct {
	PC           int32
	SP           int32
	Cycle        uint64 // cycle counter when taken (diagnostic)
	Depth        uint16 // traced-invocation nesting depth at the safe point
	InvSinceCkpt uint16 // periodic-policy progress counter
	TraceLen     uint32 // durable trace watermark (events)
	Regs         [16]uint16
	Pred         []byte   // bimodal counter table; empty for static predictors
	Mem          []uint16 // full RAM image
}

// Checkpoint image wire format (all integers little-endian):
//
//	offset size  field
//	0      4     magic "CTCK"
//	4      2     version (currently 1)
//	6      4     pc (int32)
//	10     4     sp (int32)
//	14     8     cycle
//	22     2     depth
//	24     2     invocations since last checkpoint
//	26     4     trace watermark (events)
//	30     32    regs[16] (uint16 each)
//	62     4     predictor table length P (bytes)
//	66     4     RAM length R (words)
//	70     P     predictor table
//	70+P   2R    RAM words (uint16 each)
//	...    2     CRC-16/CCITT-FALSE over every preceding byte
const (
	checkpointMagic   = "CTCK"
	checkpointVersion = 1
	checkpointHdrSize = 70
	checkpointCRCSize = 2

	// Decode-side sanity bounds, far above anything New accepts but small
	// enough that a corrupt length field cannot demand gigabytes.
	maxCheckpointPredBytes = 1 << 21
	maxCheckpointRAMWords  = 1 << 21
)

// Checkpoint decode errors.
var (
	ErrBadCheckpoint     = errors.New("mote: malformed checkpoint image")
	ErrCorruptCheckpoint = errors.New("mote: checkpoint CRC mismatch")
)

// checkpointNow snapshots the machine at the current safe point.
func (m *Machine) checkpointNow() *Checkpoint {
	ck := &Checkpoint{
		PC:           m.pc,
		SP:           m.sp,
		Cycle:        m.stats.Cycles,
		Depth:        uint16(m.traceDepth),
		InvSinceCkpt: uint16(m.invSinceCkpt),
		TraceLen:     uint32(len(m.trace)),
		Regs:         m.regs,
		Mem:          append([]uint16(nil), m.mem...),
	}
	if m.bimodal != nil {
		ck.Pred = append([]byte(nil), m.bimodal.table...)
	}
	return ck
}

// encode serializes the checkpoint in the CTCK format.
func (ck *Checkpoint) encode() []byte {
	n := checkpointHdrSize + len(ck.Pred) + 2*len(ck.Mem) + checkpointCRCSize
	out := make([]byte, n)
	copy(out, checkpointMagic)
	binary.LittleEndian.PutUint16(out[4:], checkpointVersion)
	binary.LittleEndian.PutUint32(out[6:], uint32(ck.PC))
	binary.LittleEndian.PutUint32(out[10:], uint32(ck.SP))
	binary.LittleEndian.PutUint64(out[14:], ck.Cycle)
	binary.LittleEndian.PutUint16(out[22:], ck.Depth)
	binary.LittleEndian.PutUint16(out[24:], ck.InvSinceCkpt)
	binary.LittleEndian.PutUint32(out[26:], ck.TraceLen)
	for i, r := range ck.Regs {
		binary.LittleEndian.PutUint16(out[30+2*i:], r)
	}
	binary.LittleEndian.PutUint32(out[62:], uint32(len(ck.Pred)))
	binary.LittleEndian.PutUint32(out[66:], uint32(len(ck.Mem)))
	off := checkpointHdrSize
	copy(out[off:], ck.Pred)
	off += len(ck.Pred)
	for _, w := range ck.Mem {
		binary.LittleEndian.PutUint16(out[off:], w)
		off += 2
	}
	binary.LittleEndian.PutUint16(out[off:], CRC16(out[:off]))
	return out
}

// decodeCheckpoint parses and validates a CTCK image. It is strict: the
// buffer must hold exactly one image, lengths must be sane, and the CRC
// trailer must match — any torn, truncated, or bit-flipped image errors.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < checkpointHdrSize+checkpointCRCSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadCheckpoint, len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadCheckpoint, v)
	}
	predLen := int(binary.LittleEndian.Uint32(data[62:]))
	memLen := int(binary.LittleEndian.Uint32(data[66:]))
	if predLen > maxCheckpointPredBytes || memLen > maxCheckpointRAMWords {
		return nil, fmt.Errorf("%w: lengths pred=%d mem=%d", ErrBadCheckpoint, predLen, memLen)
	}
	want := checkpointHdrSize + predLen + 2*memLen + checkpointCRCSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes (want %d)", ErrBadCheckpoint, len(data), want)
	}
	body := data[:len(data)-checkpointCRCSize]
	if got := binary.LittleEndian.Uint16(data[len(data)-checkpointCRCSize:]); CRC16(body) != got {
		return nil, ErrCorruptCheckpoint
	}
	ck := &Checkpoint{
		PC:           int32(binary.LittleEndian.Uint32(data[6:])),
		SP:           int32(binary.LittleEndian.Uint32(data[10:])),
		Cycle:        binary.LittleEndian.Uint64(data[14:]),
		Depth:        binary.LittleEndian.Uint16(data[22:]),
		InvSinceCkpt: binary.LittleEndian.Uint16(data[24:]),
		TraceLen:     binary.LittleEndian.Uint32(data[26:]),
	}
	for i := range ck.Regs {
		ck.Regs[i] = binary.LittleEndian.Uint16(data[30+2*i:])
	}
	off := checkpointHdrSize
	if predLen > 0 {
		ck.Pred = append([]byte(nil), data[off:off+predLen]...)
	}
	off += predLen
	if memLen > 0 {
		ck.Mem = make([]uint16, memLen)
		for i := range ck.Mem {
			ck.Mem[i] = binary.LittleEndian.Uint16(data[off+2*i:])
		}
	}
	return ck, nil
}

// DecodeCheckpoint parses a CTCK checkpoint image (exported for tools and
// the fuzz harness).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return decodeCheckpoint(data) }

// EncodeCheckpoint serializes a checkpoint in the CTCK format.
func EncodeCheckpoint(ck *Checkpoint) []byte { return ck.encode() }
