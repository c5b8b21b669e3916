package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"codetomo/internal/mote"
)

// The radio uplink format, versioned alongside the on-disk trace format
// ("CTT1"): a mote batches its TRACE events into sequence-numbered packets
// small enough for a low-power radio MTU and transmits them to the base
// station over a lossy link. Packets are self-delimiting so the base
// station can reassemble per-mote streams from whatever subset arrives:
//
//	magic "CTP2" (4) | mote id uint16 | seq uint32 | count uint16
//	count × record, record = (id int32, tick uint64) | crc uint16
//
// All fields little-endian. The trailer is CRC-16/CCITT-FALSE over
// everything before it, letting the base station reject bit-flipped
// frames instead of decoding garbage. Sequence numbers start at 0 and
// increase by 1 per packet, which is what makes gaps (lost packets)
// detectable.
var packetMagic = [4]byte{'C', 'T', 'P', '2'}

// ErrBadPacket is returned when decoding input that is not a trace packet.
var ErrBadPacket = errors.New("trace: not a trace packet")

// ErrCorruptPacket is returned when a frame's CRC check fails: the
// frame was a trace packet once, but the channel damaged it.
var ErrCorruptPacket = errors.New("trace: packet failed CRC")

const (
	packetHeaderSize = 12 // magic + mote id + seq + count
	packetRecordSize = 12 // id int32 + tick uint64
	packetCRCSize    = 2  // crc trailer

	// MaxPacketEvents bounds a packet's payload; 85 records keep the wire
	// size near a 1 KB radio frame.
	MaxPacketEvents = 85

	// DefaultEventsPerPacket is the batching used when the caller does not
	// choose one: 32 records ≈ 396 B on the wire.
	DefaultEventsPerPacket = 32
)

// Packet is one radio frame of trace events from one mote.
type Packet struct {
	MoteID uint16
	Seq    uint32
	Events []mote.TraceEvent
}

// MarshalBinary implements encoding.BinaryMarshaler. The frame's capacity
// is its length, so appending to it never writes into shared memory.
func (p *Packet) MarshalBinary() ([]byte, error) {
	b, err := p.AppendBinary(nil)
	return b[:len(b):len(b)], err
}

// AppendBinary appends the packet's wire encoding to dst, so a sender can
// encode a whole upload into one reused buffer.
func (p *Packet) AppendBinary(dst []byte) ([]byte, error) {
	if len(p.Events) > MaxPacketEvents {
		return dst, fmt.Errorf("trace: packet payload %d exceeds %d events", len(p.Events), MaxPacketEvents)
	}
	size := packetHeaderSize + len(p.Events)*packetRecordSize + packetCRCSize
	start := len(dst)
	dst = slices.Grow(dst, size)[:start+size]
	out := dst[start:]
	copy(out, packetMagic[:])
	binary.LittleEndian.PutUint16(out[4:], p.MoteID)
	binary.LittleEndian.PutUint32(out[6:], p.Seq)
	binary.LittleEndian.PutUint16(out[10:], uint16(len(p.Events)))
	off := packetHeaderSize
	for _, ev := range p.Events {
		binary.LittleEndian.PutUint32(out[off:], uint32(ev.ID))
		binary.LittleEndian.PutUint64(out[off+4:], ev.Tick)
		off += packetRecordSize
	}
	binary.LittleEndian.PutUint16(out[off:], mote.CRC16(out[:off]))
	return dst, nil
}

// frameHeader is a validated frame's header.
type frameHeader struct {
	moteID uint16
	seq    uint32
	count  int
}

// A frameFault is why parseFrame rejected a frame. Only UnmarshalBinary
// formats it into an error, so AddFrame's reject path builds none.
type frameFault uint8

const (
	frameOK frameFault = iota
	frameShort
	frameMagic
	frameCount
	frameLength
	frameCRC
)

// parseFrame validates one raw frame's framing and, unless skipCRC, its
// CRC, and returns its header or the first fault; the records are left in
// place for appendEvents.
func parseFrame(data []byte, skipCRC bool) (frameHeader, frameFault) {
	if len(data) < packetHeaderSize {
		return frameHeader{}, frameShort
	}
	if [4]byte(data[:4]) != packetMagic {
		return frameHeader{}, frameMagic
	}
	count := int(binary.LittleEndian.Uint16(data[10:]))
	if count > MaxPacketEvents {
		return frameHeader{}, frameCount
	}
	if len(data) != packetHeaderSize+count*packetRecordSize+packetCRCSize {
		return frameHeader{}, frameLength
	}
	if !skipCRC {
		body := data[:len(data)-packetCRCSize]
		if got := binary.LittleEndian.Uint16(data[len(data)-packetCRCSize:]); mote.CRC16(body) != got {
			return frameHeader{}, frameCRC
		}
	}
	return frameHeader{moteID: binary.LittleEndian.Uint16(data[4:]), seq: binary.LittleEndian.Uint32(data[6:]), count: count}, frameOK
}

// err describes the fault f that parseFrame found in data.
func (f frameFault) err(data []byte) error {
	switch f {
	case frameShort:
		return fmt.Errorf("%w: %d bytes", ErrBadPacket, len(data))
	case frameMagic:
		return fmt.Errorf("%w: magic %q", ErrBadPacket, data[:4])
	case frameCount:
		return fmt.Errorf("%w: implausible event count %d", ErrBadPacket, binary.LittleEndian.Uint16(data[10:]))
	case frameLength:
		count := int(binary.LittleEndian.Uint16(data[10:]))
		want := packetHeaderSize + count*packetRecordSize + packetCRCSize
		return fmt.Errorf("%w: %d bytes for %d records (want %d)", ErrBadPacket, len(data), count, want)
	case frameCRC:
		return fmt.Errorf("%w: seq %d", ErrCorruptPacket, binary.LittleEndian.Uint32(data[6:]))
	}
	return nil
}

// appendEvents decodes a parsed frame's records onto dst.
func appendEvents(dst []mote.TraceEvent, data []byte, h frameHeader) []mote.TraceEvent {
	off := packetHeaderSize
	for i := 0; i < h.count; i++ {
		dst = append(dst, mote.TraceEvent{
			ID:   int32(binary.LittleEndian.Uint32(data[off:])),
			Tick: binary.LittleEndian.Uint64(data[off+4:]),
		})
		off += packetRecordSize
	}
	return dst
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It is strict: the
// buffer must hold exactly one packet, and trailing bytes are an error —
// frames are length-delimited by the radio, so excess data means
// corruption. A frame whose CRC does not match returns ErrCorruptPacket.
func (p *Packet) UnmarshalBinary(data []byte) error {
	h, fault := parseFrame(data, false)
	if fault != frameOK {
		return fault.err(data)
	}
	p.MoteID = h.moteID
	p.Seq = h.seq
	p.Events = appendEvents(make([]mote.TraceEvent, 0, h.count), data, h)
	return nil
}

// Packetize batches an event log into sequence-numbered packets of at most
// perPacket events each (DefaultEventsPerPacket when perPacket <= 0, capped
// at MaxPacketEvents). An empty log produces no packets.
func Packetize(moteID uint16, events []mote.TraceEvent, perPacket int) []Packet {
	return AppendPackets(nil, moteID, events, perPacket)
}

// AppendPackets appends Packetize's packets to dst and returns the
// extended slice, so a caller packetizing one log after another can reuse
// one buffer. The packets' events alias the log.
func AppendPackets(dst []Packet, moteID uint16, events []mote.TraceEvent, perPacket int) []Packet {
	if perPacket <= 0 {
		perPacket = DefaultEventsPerPacket
	}
	if perPacket > MaxPacketEvents {
		perPacket = MaxPacketEvents
	}
	for seq := uint32(0); len(events) > 0; seq++ {
		n := min(perPacket, len(events))
		dst = append(dst, Packet{MoteID: moteID, Seq: seq, Events: events[:n:n]})
		events = events[n:]
	}
	return dst
}

// UplinkStats counts what one mote's uplink delivered and what the base
// station could salvage from it.
type UplinkStats struct {
	// PacketsDelivered counts distinct packets received; PacketsDuplicate
	// counts redundant copies discarded; PacketsLost counts sequence gaps
	// below the highest sequence seen (tail losses are indistinguishable
	// from the stream simply ending and are not counted).
	PacketsDelivered, PacketsDuplicate, PacketsLost int
	// PacketsCorrupted counts frames rejected before reassembly — a failed
	// CRC or undecodable framing. Unlike PacketsLost these arrived, but
	// were unusable; a sequence whose only copy was corrupt is counted
	// again as lost when the gap it leaves is observed.
	PacketsCorrupted int
	// EventsDelivered is the total payload of distinct packets.
	EventsDelivered int
	// InvocationsRecovered counts complete intervals reconstructed;
	// InvocationsDiscarded counts invocations a lost packet truncated
	// (an unmatched enter or exit, or a frame still open at a gap).
	InvocationsRecovered, InvocationsDiscarded int
	// LostPartials counts invocations truncated by a power event on the
	// mote itself (an epoch or power marker between their enter and exit)
	// rather than by channel loss: executions that began and never
	// completed because the mote lost power mid-procedure. They are a
	// subset of InvocationsDiscarded, broken out per procedure in
	// LostPartialsByProc (nil when zero) because the estimator uses the
	// counts to correct the survival bias of completed-invocation samples.
	LostPartials       int
	LostPartialsByProc map[int]int
}

// addLostPartials records n power-truncated invocations of proc.
func (st *UplinkStats) addLostPartials(proc, n int) {
	st.LostPartials += n
	if st.LostPartialsByProc == nil {
		st.LostPartialsByProc = make(map[int]int)
	}
	st.LostPartialsByProc[proc] += n
}

// Add accumulates another mote's uplink accounting. The per-procedure
// lost partials are copied, never aliased, and LostPartials is their sum.
func (st *UplinkStats) Add(o UplinkStats) {
	st.PacketsDelivered += o.PacketsDelivered
	st.PacketsDuplicate += o.PacketsDuplicate
	st.PacketsLost += o.PacketsLost
	st.PacketsCorrupted += o.PacketsCorrupted
	st.EventsDelivered += o.EventsDelivered
	st.InvocationsRecovered += o.InvocationsRecovered
	st.InvocationsDiscarded += o.InvocationsDiscarded
	for proc, n := range o.LostPartialsByProc {
		st.addLostPartials(proc, n)
	}
}

// Reassembler rebuilds one mote's event stream from sequence-numbered
// packets that may arrive duplicated, reordered, or not at all.
type Reassembler struct {
	// SkipCRC makes AddFrame accept frames without checking their CRC, the
	// naive receiver a corruption experiment compares against: a bit flip
	// in the records decodes silently wrong, and one in the mote ID is
	// then indistinguishable from another mote's frame. Reset keeps it.
	SkipCRC bool

	moteID   uint16
	base     uint32
	payloads map[uint32][]mote.TraceEvent
	dups     int
	corrupt  int

	// events is the arena AddFrame decodes payloads into; seqs and stack
	// are Recover's scratch. All three survive Reset, so a reassembler
	// reused across motes stops allocating once it has seen the largest.
	events []mote.TraceEvent
	seqs   []uint32
	stack  []openFrame
}

// NewReassembler returns a reassembler for the given mote's stream.
func NewReassembler(moteID uint16) *Reassembler {
	return &Reassembler{moteID: moteID, payloads: make(map[uint32][]mote.TraceEvent)}
}

// Reset empties the reassembler, keeping its buffers, and restarts it on
// moteID's stream at sequence firstSeq; Reset(id, 0) is NewReassembler(id).
// A long-running base station seals its receive window at every estimation
// epoch and resumes each stream at r.NextSeq(): without the base,
// everything the previous epochs already consumed would be counted as
// lost. Packets below firstSeq are stale redeliveries of sealed data and
// are discarded like duplicates.
func (r *Reassembler) Reset(moteID uint16, firstSeq uint32) {
	clear(r.payloads)
	r.moteID, r.base, r.dups, r.corrupt = moteID, firstSeq, 0, 0
	r.events = r.events[:0]
}

// Add accepts one received packet: it is AddFrame on the packet's frame
// without the framing check, the CRC and the decode, so a sender that
// still holds the packet behind a frame the link delivered unchanged can
// hand it over directly. Duplicates (same sequence number) and stale
// packets (below the stream's first sequence) are counted and discarded; a
// packet from a different mote is an error, or under SkipCRC counted as
// corruption, as in AddFrame. The window keeps p.Events until Reset.
func (r *Reassembler) Add(p Packet) error {
	if p.MoteID != r.moteID {
		return r.foreign(p.MoteID)
	}
	if r.Has(p.Seq) {
		r.dups++
		return nil
	}
	r.payloads[p.Seq] = p.Events
	return nil
}

// foreign handles a packet from another mote: a routing error, but under
// SkipCRC only what a flipped mote ID looks like.
func (r *Reassembler) foreign(moteID uint16) error {
	if r.SkipCRC {
		r.corrupt++
		return nil
	}
	return fmt.Errorf("trace: packet from mote %d on mote %d's stream", moteID, r.moteID)
}

// Has reports whether sequence seq is already accounted for: received
// intact, or below the stream's first sequence (sealed by an earlier
// epoch). It is the base station's receive window, what an ARQ round
// NACKs against.
func (r *Reassembler) Has(seq uint32) bool {
	if seq < r.base {
		return true
	}
	_, ok := r.payloads[seq]
	return ok
}

// NextSeq returns the sequence number a successor stream should start at:
// one past the highest sequence received, or the stream's own base when
// nothing has arrived. It is the rebasing hand-off between estimation
// epochs.
func (r *Reassembler) NextSeq() uint32 {
	next := r.base
	for s := range r.payloads {
		if s+1 > next {
			next = s + 1
		}
	}
	return next
}

// AddFrame accepts one raw frame off the radio. Frames that fail to
// decode — a failed CRC or mangled framing — are rejected and counted in
// UplinkStats.PacketsCorrupted; rejection is the expected behaviour on a
// corrupting channel, not an error. A CRC-validated packet from the wrong
// mote is still an error — that is a base-station routing bug, not channel
// noise — but under SkipCRC a mismatched mote ID is the only integrity
// signal there is: flipped ID bytes survive decoding, so the frame is
// rejected as channel damage like any other corruption. Only a new
// sequence's records are decoded, into the reassembler's own arena.
func (r *Reassembler) AddFrame(frame []byte) error {
	h, fault := parseFrame(frame, r.SkipCRC)
	if fault != frameOK {
		r.corrupt++
		return nil
	}
	if h.moteID != r.moteID {
		return r.foreign(h.moteID)
	}
	if r.Has(h.seq) {
		r.dups++
		return nil
	}
	n := len(r.events)
	r.events = appendEvents(r.events, frame, h)
	r.payloads[h.seq] = r.events[n:len(r.events):len(r.events)]
	return nil
}

// Recover reconstructs invocation intervals from everything received so
// far. Lost packets split the stream into contiguous segments; only the
// invocations truncated by a gap (enter and exit on opposite sides of it)
// are discarded — complete invocations inside every segment survive, so
// estimation degrades with the loss rate instead of collapsing. Intervals
// are returned in completion order; under loss their Depth is relative to
// the enclosing segment (a lower bound on the true nesting depth).
func (r *Reassembler) Recover() ([]Interval, UplinkStats) { return r.AppendRecovered(nil) }

// AppendRecovered is Recover appending the intervals to dst, so a caller
// that reduces them on the spot can reuse one buffer across streams.
func (r *Reassembler) AppendRecovered(dst []Interval) ([]Interval, UplinkStats) {
	sv := salvager{st: UplinkStats{PacketsDelivered: len(r.payloads), PacketsDuplicate: r.dups, PacketsCorrupted: r.corrupt}}
	st := &sv.st
	if len(r.payloads) == 0 {
		return dst, *st
	}
	seqs := r.seqs[:0]
	for s, evs := range r.payloads {
		seqs = append(seqs, s)
		st.EventsDelivered += len(evs)
	}
	slices.Sort(seqs)
	st.PacketsLost = int(seqs[len(seqs)-1]-r.base) + 1 - len(seqs)

	// Every interval consumes an enter and an exit event.
	sv.stack, sv.out = r.stack[:0], slices.Grow(dst, st.EventsDelivered/2)
	for i, s := range seqs {
		if i > 0 && s != seqs[i-1]+1 {
			sv.cut()
		}
		sv.feed(r.payloads[s])
	}
	sv.cut()
	r.seqs, r.stack = seqs, sv.stack
	st.InvocationsRecovered = len(sv.out) - len(dst)
	return sv.out, *st
}

// openFrame is an invocation whose enter salvage has seen and whose exit
// it has not.
type openFrame struct {
	proc       int
	enter      uint64
	childTicks uint64
	doomed     bool
}

// salvager is the one routine that pairs enter and exit events into
// intervals. It is fed contiguous runs of events, each a substring of a
// well-nested log, piece by piece, with cut marking the gap after each run.
// Unmatched exits at the front (their enters were lost) and frames still
// open at the end (their exits were lost) are discarded and counted;
// everything properly paired inside the run is complete — contiguity
// guarantees no callee is missing — and is emitted. An epoch marker
// (mote.EpochMarkID, logged at a cold reboot) flushes the open frames:
// their exits were lost to the crash, and post-reboot events must never
// pair with pre-crash enters; each flushed frame is also a power-truncated
// lost partial. A power marker (mote.PowerMarkID, logged at a checkpoint
// restore) dooms the frames that straddle it: their enters are real and
// their exits will arrive — the restored mote resumes inside them — but
// the span covers a dark window and re-executed work, so the interval's
// timing is garbage. Doomed frames are counted as lost partials at the
// marker and silently discarded when their exits pair; frames opened after
// the marker are clean. Other corrupt events (negative ids, an exit that
// does not close the innermost open frame, time running backwards) discard
// the enclosing frame rather than aborting the whole stream. Every event a
// whole, well-nested log cannot contain — these, and an exit with no open
// frame — is counted in malformed, which Extract requires to be zero.
type salvager struct {
	st        UplinkStats
	stack     []openFrame
	out       []Interval
	malformed int
}

// cut ends the current contiguous run: the frames still open are
// truncated by the gap that follows.
func (sv *salvager) cut() {
	sv.st.InvocationsDiscarded += len(sv.stack)
	sv.stack = sv.stack[:0]
}

// feed continues the current contiguous run with events.
func (sv *salvager) feed(events []mote.TraceEvent) {
	st := &sv.st
	for _, ev := range events {
		if ev.ID == mote.EpochMarkID {
			// Cold boot: every frame open at the outage is truncated. Frames
			// already doomed by a power marker were counted there.
			for _, fr := range sv.stack {
				if !fr.doomed {
					st.addLostPartials(fr.proc, 1)
				}
			}
			sv.cut()
			continue
		}
		if ev.ID == mote.PowerMarkID {
			// Checkpoint restore: straddling frames survive structurally but
			// their timing spans the outage — doom them.
			for i := range sv.stack {
				if !sv.stack[i].doomed {
					sv.stack[i].doomed = true
					st.addLostPartials(sv.stack[i].proc, 1)
				}
			}
			continue
		}
		if ev.ID < 0 {
			st.InvocationsDiscarded++
			sv.malformed++
			continue
		}
		proc := int(ev.ID / 2)
		if ev.ID%2 == 0 {
			sv.stack = append(sv.stack, openFrame{proc: proc, enter: ev.Tick})
			continue
		}
		stack := sv.stack
		if len(stack) == 0 {
			// Exit whose enter is on the other side of a gap.
			st.InvocationsDiscarded++
			sv.malformed++
			continue
		}
		// In a substring of a well-nested log the exit always matches the
		// top of the stack; a mismatch means corruption, so resynchronize
		// by popping (and discarding) frames until it does.
		match := -1
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].proc == proc {
				match = i
				break
			}
		}
		if match != len(stack)-1 {
			sv.malformed++
		}
		if match < 0 {
			st.InvocationsDiscarded++
			continue
		}
		st.InvocationsDiscarded += len(stack) - 1 - match
		top := stack[match]
		stack = stack[:match]
		sv.stack = stack
		if top.doomed {
			st.InvocationsDiscarded++ // straddled a power marker: timing spans the outage
			continue
		}
		if ev.Tick < top.enter {
			st.InvocationsDiscarded++ // clock ran backwards: corrupt pair
			sv.malformed++
			continue
		}
		iv := Interval{
			ProcIndex:  top.proc,
			EnterTick:  top.enter,
			ExitTick:   ev.Tick,
			ChildTicks: top.childTicks,
			Depth:      len(stack),
		}
		sv.out = append(sv.out, iv)
		if len(stack) > 0 {
			stack[len(stack)-1].childTicks += iv.GrossTicks()
		}
	}
}
