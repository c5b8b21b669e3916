package trace

import (
	"testing"

	"codetomo/internal/mote"
)

// events builds one complete invocation of proc at the given ticks.
func invocation(proc int, enter, exit uint64) []mote.TraceEvent {
	return []mote.TraceEvent{
		{ID: EnterID(proc), Tick: enter},
		{ID: ExitID(proc), Tick: exit},
	}
}

// A rebased reassembler must account loss relative to its base, not to
// sequence zero: a stream resumed at seq 100 that receives 100 and 101 has
// lost nothing.
func TestReassemblerRebaseLossAccounting(t *testing.T) {
	r := NewReassembler(7)
	r.Reset(7, 100)
	for i, seq := range []uint32{100, 101} {
		if err := r.Add(Packet{MoteID: 7, Seq: seq, Events: invocation(1, uint64(10*i), uint64(10*i+4))}); err != nil {
			t.Fatal(err)
		}
	}
	ivs, st := r.Recover()
	if st.PacketsLost != 0 {
		t.Fatalf("PacketsLost = %d, want 0 (stream is rebased at 100)", st.PacketsLost)
	}
	if len(ivs) != 2 || st.InvocationsRecovered != 2 {
		t.Fatalf("recovered %d intervals (stats %d), want 2", len(ivs), st.InvocationsRecovered)
	}
	if got := r.NextSeq(); got != 102 {
		t.Fatalf("NextSeq = %d, want 102", got)
	}
}

// A gap between the base and the first received packet is observed loss.
func TestReassemblerRebaseFrontGap(t *testing.T) {
	r := NewReassembler(3)
	r.Reset(3, 10)
	if err := r.Add(Packet{MoteID: 3, Seq: 12, Events: invocation(0, 5, 9)}); err != nil {
		t.Fatal(err)
	}
	_, st := r.Recover()
	if st.PacketsLost != 2 {
		t.Fatalf("PacketsLost = %d, want 2 (seqs 10 and 11)", st.PacketsLost)
	}
}

// Stale packets — sequences below the base, i.e. redeliveries of data a
// previous epoch already consumed — are discarded and counted like
// duplicates, never reassembled twice.
func TestReassemblerRebaseStalePackets(t *testing.T) {
	r := NewReassembler(5)
	r.Reset(5, 4)
	if err := r.Add(Packet{MoteID: 5, Seq: 2, Events: invocation(0, 1, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Packet{MoteID: 5, Seq: 4, Events: invocation(0, 20, 24)}); err != nil {
		t.Fatal(err)
	}
	ivs, st := r.Recover()
	if len(ivs) != 1 || ivs[0].EnterTick != 20 {
		t.Fatalf("recovered %v, want only the seq-4 invocation", ivs)
	}
	if st.PacketsDuplicate != 1 {
		t.Fatalf("PacketsDuplicate = %d, want 1 (the stale packet)", st.PacketsDuplicate)
	}
	if st.PacketsDelivered != 1 {
		t.Fatalf("PacketsDelivered = %d, want 1", st.PacketsDelivered)
	}
}

// An empty rebased stream reports its own base as the next sequence, so
// epoch hand-off is stable across idle epochs.
func TestReassemblerNextSeqIdle(t *testing.T) {
	r := NewReassembler(1)
	r.Reset(1, 37)
	if got := r.NextSeq(); got != 37 {
		t.Fatalf("NextSeq = %d, want 37", got)
	}
	ivs, st := r.Recover()
	if len(ivs) != 0 || st.PacketsLost != 0 {
		t.Fatalf("idle stream recovered %v with %d lost, want nothing", ivs, st.PacketsLost)
	}
}

// Splitting one mote's upload at an epoch seal — Recover, then Reset in
// place at NextSeq, the station's discipline — recovers every invocation
// that does not straddle the cut, and the straddlers are counted as
// discarded, not silently dropped.
func TestReassemblerEpochSealSplit(t *testing.T) {
	// Three packets: P0 holds a complete invocation, P1 opens one that P2
	// closes. Cutting between P1 and P2 truncates that invocation.
	p0 := Packet{MoteID: 9, Seq: 0, Events: invocation(0, 0, 5)}
	p1 := Packet{MoteID: 9, Seq: 1, Events: []mote.TraceEvent{{ID: EnterID(1), Tick: 10}}}
	p2 := Packet{MoteID: 9, Seq: 2, Events: []mote.TraceEvent{{ID: ExitID(1), Tick: 15}}}

	r := NewReassembler(9)
	for _, p := range []Packet{p0, p1} {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs1, st1 := r.Recover()
	if len(ivs1) != 1 || st1.InvocationsDiscarded != 1 {
		t.Fatalf("epoch 1: recovered %d, discarded %d; want 1 and 1", len(ivs1), st1.InvocationsDiscarded)
	}

	r.Reset(9, r.NextSeq())
	for _, p := range []Packet{p1, p2} { // p1 is a stale redelivery now
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs2, st2 := r.Recover()
	if len(ivs2) != 0 || st2.InvocationsDiscarded != 1 {
		t.Fatalf("epoch 2: recovered %d, discarded %d; want 0 and 1 (exit without enter)", len(ivs2), st2.InvocationsDiscarded)
	}
	if st2.PacketsLost != 0 || st2.PacketsDuplicate != 1 {
		t.Fatalf("epoch 2: PacketsLost = %d, PacketsDuplicate = %d; want 0 and 1", st2.PacketsLost, st2.PacketsDuplicate)
	}
}
