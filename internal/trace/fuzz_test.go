package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// produces inverted intervals, and that it agrees with extractReference on
// every event sequence: the same intervals, or the same rejection. The one
// intended difference is a pair whose clock ran backwards, which the
// reference returns as an inverted interval and Extract rejects. Each byte
// is one event: ids from -3 (negative garbage, the power and epoch
// markers) to 15, and tick steps from -3 to +10, so clocks can run
// backwards.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{79, 80, 81, 82})     // enter 0, exit 0, enter 1, exit 1, one tick apart
	f.Add([]byte{79, 81, 82, 80})     // proc 1 nested in proc 0
	f.Add([]byte{79, 81, 58, 82, 80}) // power marker inside both frames
	f.Add([]byte{79, 59, 81, 82})     // epoch marker flushes an open frame
	f.Add([]byte{79, 4})              // exit three ticks before its enter
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]mote.TraceEvent, 0, len(data))
		tick := uint64(100)
		for _, b := range data {
			tick += uint64(int64(b/19) - 3)
			events = append(events, mote.TraceEvent{ID: int32(b%19) - 3, Tick: tick})
		}
		ivs, err := Extract(events)
		ref, refErr := extractReference(events)
		inverted := false
		for _, iv := range ref {
			inverted = inverted || iv.ExitTick < iv.EnterTick
		}
		switch {
		case inverted:
			if err == nil {
				t.Fatalf("accepted a backwards-clock log: %+v", ivs)
			}
		case (err == nil) != (refErr == nil):
			t.Fatalf("Extract err = %v, reference err = %v", err, refErr)
		case !reflect.DeepEqual(ivs, ref):
			t.Fatalf("intervals diverge:\n got %+v\nwant %+v", ivs, ref)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
			return
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

// extractReference is Extract as written before it ran on the salvager: a
// standalone strict pairer that aborts at the first unbalanced event but
// does not check that time runs forwards.
func extractReference(events []mote.TraceEvent) ([]Interval, error) {
	type frame struct {
		proc       int
		enter      uint64
		childTicks uint64
		doomed     bool
	}
	var stack []frame
	var out []Interval
	for i, ev := range events {
		if ev.ID == mote.EpochMarkID {
			stack = stack[:0]
			continue
		}
		if ev.ID == mote.PowerMarkID {
			for j := range stack {
				stack[j].doomed = true
			}
			continue
		}
		if ev.ID < 0 {
			return nil, fmt.Errorf("%w: negative id %d at event %d", ErrMalformed, ev.ID, i)
		}
		proc := int(ev.ID / 2)
		if ev.ID%2 == 0 {
			stack = append(stack, frame{proc: proc, enter: ev.Tick})
			continue
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("%w: exit for proc %d with empty stack at event %d", ErrMalformed, proc, i)
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.proc != proc {
			return nil, fmt.Errorf("%w: exit for proc %d while proc %d is open at event %d", ErrMalformed, proc, top.proc, i)
		}
		if top.doomed {
			continue
		}
		iv := Interval{
			ProcIndex:  proc,
			EnterTick:  top.enter,
			ExitTick:   ev.Tick,
			ChildTicks: top.childTicks,
			Depth:      len(stack),
		}
		out = append(out, iv)
		if len(stack) > 0 {
			stack[len(stack)-1].childTicks += iv.GrossTicks()
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: %d frame(s) still open at end of log", ErrMalformed, len(stack))
	}
	return out, nil
}
