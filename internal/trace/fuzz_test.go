package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"codetomo/internal/mote"
)

// FuzzReadEvents checks the trace decoder never panics on arbitrary bytes,
// and that anything it accepts round-trips.
func FuzzReadEvents(f *testing.F) {
	var good bytes.Buffer
	_ = WriteEvents(&good, nil)
	f.Add(good.Bytes())
	f.Add(append(append([]byte{}, good.Bytes()...), 'x')) // trailing garbage
	f.Add([]byte("CTT1"))
	f.Add([]byte("CTT1\x02\x00\x00\x00junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, events); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadEvents(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(events))
		}
	})
}

// FuzzPacketDecode checks the packet decoder never panics on arbitrary
// bytes, and that anything it accepts re-marshals to the identical frame
// (the decoder is strict, so accepted input is exactly one packet). Every
// input also goes to an unchecked (SkipCRC) receiver, on the frame's own
// mote and on a foreign one: that is the only path on which garbage
// records — negative IDs, huge or backwards ticks — reach the salvager,
// so AddFrame must never fail and Recover must yield only well-formed
// intervals.
func FuzzPacketDecode(f *testing.F) {
	good, _ := (&Packet{MoteID: 2, Seq: 9, Events: []mote.TraceEvent{{ID: 4, Tick: 77}}}).MarshalBinary()
	// Stale CRCs: only the unchecked receiver decodes these.
	garbage, _ := (&Packet{MoteID: 2, Seq: 9, Events: []mote.TraceEvent{
		{ID: 0, Tick: 1 << 62}, {ID: 2, Tick: 5}, {ID: 3, Tick: 9}, {ID: 1, Tick: 3}, {ID: -7, Tick: 4}}}).MarshalBinary()
	garbage[len(garbage)-1] ^= 0xFF
	foreign := append([]byte(nil), good...)
	foreign[4] ^= 0x01
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(good)
	f.Add(garbage)
	f.Add(badCRC)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte{}, good...), 0))
	f.Add(foreign)
	f.Add([]byte("CTP2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.UnmarshalBinary(data); err == nil {
			out, err := p.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal failed: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("round trip changed bytes:\n got %x\nwant %x", out, data)
			}
		}
		var own uint16
		if len(data) >= 6 {
			own = binary.LittleEndian.Uint16(data[4:])
		}
		for _, id := range []uint16{own, own + 1} {
			r := NewReassembler(id)
			r.SkipCRC = true
			if err := r.AddFrame(data); err != nil {
				t.Fatalf("unchecked AddFrame on mote %d: %v", id, err)
			}
			ivs, _ := r.Recover()
			for _, iv := range ivs {
				if iv.ExitTick < iv.EnterTick || iv.ExclusiveTicks() > iv.GrossTicks() {
					t.Fatalf("malformed interval %+v", iv)
				}
			}
		}
	})
}

// FuzzReassembler feeds arbitrary packet subsets (drops, duplicates,
// reorderings encoded in the perm bytes) of a synthetic log through the
// reassembler: it must never panic, never invent invocations, and keep
// every recovered interval well-formed. The same subset, fed as frames to
// a reassembler reused from another mote's stream, must recover exactly
// the same.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(3))
	f.Add([]byte{3, 1, 1, 0}, uint8(2))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, perm []byte, perPacket uint8) {
		events, _ := syntheticLog(12)
		pkts := Packetize(5, events, int(perPacket%8))
		lossless, err := Extract(events)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReassembler(5)
		reused := NewReassembler(6)
		for _, p := range Packetize(6, events, 4) {
			frame, _ := p.MarshalBinary()
			if err := reused.AddFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		reused.Recover()
		reused.Reset(5)
		for _, b := range perm {
			if len(pkts) == 0 {
				break
			}
			p := pkts[int(b)%len(pkts)]
			if err := r.Add(p); err != nil {
				t.Fatal(err)
			}
			frame, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.AddFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		ivs, st := r.Recover()
		if fivs, fst := reused.Recover(); !reflect.DeepEqual(fivs, ivs) || !reflect.DeepEqual(fst, st) {
			t.Fatalf("frames through a reused reassembler diverge:\n%+v %+v\n%+v %+v", fivs, fst, ivs, st)
		}
		if len(ivs) > len(lossless) {
			t.Fatalf("recovered %d intervals from %d lossless", len(ivs), len(lossless))
		}
		if st.InvocationsRecovered != len(ivs) {
			t.Fatalf("stats disagree: %d vs %d", st.InvocationsRecovered, len(ivs))
		}
		for _, iv := range ivs {
			if iv.ExitTick < iv.EnterTick || iv.ExclusiveTicks() > iv.GrossTicks() {
				t.Fatalf("malformed interval %+v", iv)
			}
		}
	})
}

// FuzzExtract checks interval reconstruction never panics and never
// produces inverted intervals, for arbitrary monotone event sequences.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 1})
	f.Add([]byte{2, 3})
	f.Fuzz(func(t *testing.T, ids []byte) {
		events := make([]mote.TraceEvent, 0, len(ids))
		tick := uint64(0)
		for _, id := range ids {
			tick += uint64(id % 7)
			events = append(events, mote.TraceEvent{ID: int32(id % 16), Tick: tick})
		}
		ivs, err := Extract(events)
		if err != nil {
			return // malformed logs are rejected, not crashed on
		}
		for _, iv := range ivs {
			if iv.ExitTick < iv.EnterTick {
				t.Fatalf("inverted interval: %+v", iv)
			}
			if iv.ExclusiveTicks() > iv.GrossTicks() {
				t.Fatalf("exclusive exceeds gross: %+v", iv)
			}
		}
	})
}
