package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"codetomo/internal/mote"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{MoteID: 7, Seq: 42, Events: []mote.TraceEvent{
		{ID: 0, Tick: 10}, {ID: 1, Tick: 25}, {ID: 4, Tick: 1 << 40},
	}}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if q.MoteID != p.MoteID || q.Seq != p.Seq || len(q.Events) != len(p.Events) {
		t.Fatalf("got %+v, want %+v", q, p)
	}
	for i := range p.Events {
		if q.Events[i] != p.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, q.Events[i], p.Events[i])
		}
	}
}

func TestPacketRejectsGarbage(t *testing.T) {
	good, _ := (&Packet{MoteID: 1, Seq: 0, Events: []mote.TraceEvent{{ID: 0, Tick: 1}}}).MarshalBinary()
	cases := [][]byte{
		nil,
		[]byte("CTP"),
		[]byte("NOPE........"),
		append([]byte("CTP1"), 0, 0, 0, 0, 0, 0, 0xFF, 0xFF), // retired magic, absurd count
		good[:len(good)-1],                   // truncated record
		append(append([]byte{}, good...), 0), // trailing byte
	}
	for i, data := range cases {
		var p Packet
		if err := p.UnmarshalBinary(data); !errors.Is(err, ErrBadPacket) {
			t.Errorf("case %d: err = %v, want ErrBadPacket", i, err)
		}
	}
}

func TestPacketizeBoundaries(t *testing.T) {
	events := make([]mote.TraceEvent, 10)
	for i := range events {
		events[i] = mote.TraceEvent{ID: int32(i % 4), Tick: uint64(i)}
	}
	pkts := Packetize(3, events, 4)
	if len(pkts) != 3 {
		t.Fatalf("got %d packets, want 3", len(pkts))
	}
	total := 0
	for i, p := range pkts {
		if p.MoteID != 3 || p.Seq != uint32(i) {
			t.Fatalf("packet %d: mote %d seq %d", i, p.MoteID, p.Seq)
		}
		total += len(p.Events)
	}
	if total != len(events) {
		t.Fatalf("packetize lost events: %d of %d", total, len(events))
	}
	if Packetize(0, nil, 4) != nil {
		t.Fatal("empty log should produce no packets")
	}
}

// TestAppendPackets: appending to a used buffer keeps what it holds and
// adds exactly Packetize's packets.
func TestAppendPackets(t *testing.T) {
	events := make([]mote.TraceEvent, 10)
	for i := range events {
		events[i] = mote.TraceEvent{ID: int32(i % 4), Tick: uint64(i)}
	}
	buf := Packetize(1, events[:3], 2)
	head := append([]Packet(nil), buf...)
	buf = AppendPackets(buf, 3, events, 4)
	if !reflect.DeepEqual(buf[:len(head)], head) {
		t.Fatal("AppendPackets changed the packets already in dst")
	}
	if want := Packetize(3, events, 4); !reflect.DeepEqual(buf[len(head):], want) {
		t.Fatalf("appended %v, want %v", buf[len(head):], want)
	}
	if got := AppendPackets(buf[:0], 3, nil, 4); len(got) != 0 {
		t.Fatalf("empty log appended %d packets", len(got))
	}
}

// syntheticLog builds a well-nested log: n depth-0 invocations of proc 0,
// every third one calling proc 1. Returns the log and the per-proc
// invocation counts.
func syntheticLog(n int) ([]mote.TraceEvent, map[int]int) {
	var events []mote.TraceEvent
	tick := uint64(0)
	next := func(id int32) {
		tick += 3
		events = append(events, mote.TraceEvent{ID: id, Tick: tick})
	}
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		next(EnterID(0))
		if i%3 == 0 {
			next(EnterID(1))
			next(ExitID(1))
			counts[1]++
		}
		next(ExitID(0))
		counts[0]++
	}
	return events, counts
}

// TestReassemblerLossSemantics is the loss-tolerance contract: for specific
// drop/duplicate/reorder patterns, exactly the invocations a lost packet
// truncates disappear and everything else survives.
func TestReassemblerLossSemantics(t *testing.T) {
	// A log with 9 proc-0 invocations (3 of which contain a proc-1 call) =
	// 9*2 + 3*2 = 24 events → 8 packets of 3. Three events per packet makes
	// packet borders fall inside invocations, so drops genuinely truncate.
	events, counts := syntheticLog(9)
	if len(events) != 24 {
		t.Fatalf("synthetic log has %d events", len(events))
	}
	pkts := Packetize(1, events, 3)
	if len(pkts) != 8 {
		t.Fatalf("got %d packets", len(pkts))
	}

	cases := []struct {
		name      string
		deliver   []int // packet indices in arrival order (repeats = dup)
		wantProc  map[int]int
		wantLost  int // PacketsLost
		wantDup   int
		discardLo int // minimum InvocationsDiscarded
	}{
		{
			name:     "lossless in order",
			deliver:  []int{0, 1, 2, 3, 4, 5, 6, 7},
			wantProc: counts,
		},
		{
			name:     "reordered and duplicated",
			deliver:  []int{1, 0, 3, 2, 5, 5, 4, 0, 7, 6},
			wantProc: counts,
			wantDup:  2,
		},
		{
			// Packet 1 carries invocation 0's exit and all of invocation 1:
			// dropping it truncates invocation 0 (its proc-1 callee, fully
			// inside packet 0, must survive) and loses invocation 1
			// outright; everything from packet 2 on is intact.
			name:      "interior drop",
			deliver:   []int{0, 2, 3, 4, 5, 6, 7},
			wantLost:  1,
			discardLo: 1,
		},
		{
			name:      "two gaps",
			deliver:   []int{0, 1, 3, 4, 6, 7},
			wantLost:  2,
			discardLo: 2,
		},
		{
			name:     "tail drop",
			deliver:  []int{0, 1, 2, 3, 4, 5, 6},
			wantLost: 0, // tail loss is indistinguishable from stream end
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReassembler(1)
			for _, i := range tc.deliver {
				if err := r.Add(pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			ivs, st := r.Recover()
			got := map[int]int{}
			for _, iv := range ivs {
				got[iv.ProcIndex]++
				if iv.ExitTick < iv.EnterTick {
					t.Fatalf("inverted interval %+v", iv)
				}
			}
			if tc.wantProc != nil {
				for proc, want := range tc.wantProc {
					if got[proc] != want {
						t.Errorf("proc %d: recovered %d invocations, want %d", proc, got[proc], want)
					}
				}
				if st.InvocationsDiscarded != 0 {
					t.Errorf("discarded %d invocations, want 0", st.InvocationsDiscarded)
				}
			}
			if st.PacketsLost != tc.wantLost {
				t.Errorf("PacketsLost = %d, want %d", st.PacketsLost, tc.wantLost)
			}
			if st.PacketsDuplicate != tc.wantDup {
				t.Errorf("PacketsDuplicate = %d, want %d", st.PacketsDuplicate, tc.wantDup)
			}
			if st.InvocationsDiscarded < tc.discardLo {
				t.Errorf("InvocationsDiscarded = %d, want >= %d", st.InvocationsDiscarded, tc.discardLo)
			}
			if st.InvocationsRecovered != len(ivs) {
				t.Errorf("InvocationsRecovered = %d, ivs = %d", st.InvocationsRecovered, len(ivs))
			}
			// Loss only removes invocations, never invents them, and the
			// survivors' durations match the lossless reconstruction.
			lossless, _ := Extract(events)
			byKey := map[[2]uint64]Interval{}
			for _, iv := range lossless {
				byKey[[2]uint64{iv.EnterTick, iv.ExitTick}] = iv
			}
			for _, iv := range ivs {
				ref, ok := byKey[[2]uint64{iv.EnterTick, iv.ExitTick}]
				if !ok {
					t.Fatalf("recovered interval %+v not in lossless set", iv)
				}
				if ref.ProcIndex != iv.ProcIndex || ref.ChildTicks != iv.ChildTicks {
					t.Fatalf("recovered %+v differs from lossless %+v", iv, ref)
				}
			}
		})
	}
}

// A gap inside a nested region discards the enclosing invocation but keeps
// complete callees on both sides of the gap.
func TestReassemblerNestedGap(t *testing.T) {
	// outer enter | inner1 enter, exit | inner2 enter, exit | outer exit
	events := []mote.TraceEvent{
		{ID: EnterID(0), Tick: 1},
		{ID: EnterID(1), Tick: 2}, {ID: ExitID(1), Tick: 3},
		{ID: EnterID(1), Tick: 4}, {ID: ExitID(1), Tick: 5},
		{ID: ExitID(0), Tick: 6},
	}
	pkts := Packetize(0, events, 2) // [outer+in1enter][in1exit+in2enter][in2exit+outerexit]
	r := NewReassembler(0)
	_ = r.Add(pkts[0])
	_ = r.Add(pkts[2]) // drop the middle packet
	ivs, st := r.Recover()
	for _, iv := range ivs {
		if iv.ProcIndex == 0 {
			t.Fatalf("outer invocation should have been truncated: %+v", iv)
		}
	}
	// Both inner invocations are split across the gap, so nothing survives
	// intact, and the outer frame plus both halves are discarded.
	if st.InvocationsDiscarded < 2 {
		t.Fatalf("discarded = %d, want >= 2", st.InvocationsDiscarded)
	}
}

func TestReassemblerRejectsForeignMote(t *testing.T) {
	r := NewReassembler(1)
	if err := r.Add(Packet{MoteID: 2}); err == nil {
		t.Fatal("foreign mote accepted")
	}
}

// The salvage path agrees with strict Extract on lossless streams.
func TestSalvageMatchesExtract(t *testing.T) {
	events, _ := syntheticLog(20)
	want, err := Extract(events)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(9)
	for _, p := range Packetize(9, events, 5) {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got, st := r.Recover()
	if len(got) != len(want) || st.InvocationsDiscarded != 0 {
		t.Fatalf("salvage: %d intervals (%d discarded), extract: %d", len(got), st.InvocationsDiscarded, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestPacketWireFormatIsStable(t *testing.T) {
	// The wire format is a contract with deployed motes: pin it. CTP2
	// magic, the body, then the CRC-16 (CCITT-FALSE over magic+body)
	// little-endian.
	body := []byte{
		0x02, 0x01, // mote id LE
		0x06, 0x05, 0x04, 0x03, // seq LE
		0x01, 0x00, // count LE
		0x02, 0x00, 0x00, 0x00, // id LE
		0x0A, 0, 0, 0, 0, 0, 0, 0, // tick LE
	}
	p := Packet{MoteID: 0x0102, Seq: 0x03040506, Events: []mote.TraceEvent{{ID: 2, Tick: 0x0A}}}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte("CTP2"), body...), 0x11, 0xEB)
	if !bytes.Equal(data, want) {
		t.Fatalf("wire bytes:\n got %x\nwant %x", data, want)
	}
	if got := mote.CRC16(want[:len(want)-2]); got != 0xEB11 {
		t.Fatalf("CRC16 = %#04x, want 0xEB11", got)
	}
}

// Every single-byte corruption of a frame must be rejected — either by
// the CRC (ErrCorruptPacket) or, when the damage hits the magic or length
// fields, by framing (ErrBadPacket). Nothing decodes silently wrong.
func TestPacketCRCRejectsCorruption(t *testing.T) {
	p := Packet{MoteID: 3, Seq: 9, Events: []mote.TraceEvent{{ID: 1, Tick: 100}, {ID: 2, Tick: 250}}}
	good, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		for _, flip := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), good...)
			bad[i] ^= flip
			var q Packet
			err := q.UnmarshalBinary(bad)
			if err == nil {
				t.Fatalf("corruption at byte %d (flip %#02x) decoded silently", i, flip)
			}
			if !errors.Is(err, ErrCorruptPacket) && !errors.Is(err, ErrBadPacket) {
				t.Fatalf("byte %d: unexpected error %v", i, err)
			}
		}
	}
	// An uncorrupted frame still decodes.
	var q Packet
	if err := q.UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
}

// AddFrame is the base station's ingest path: corrupt frames are counted,
// not fatal, and never contribute events. Under SkipCRC the same frames
// are delivered as they are, and a foreign mote ID is counted as channel
// damage instead of reported as a routing error.
func TestReassemblerAddFrameCountsCorrupt(t *testing.T) {
	events, _ := syntheticLog(4)
	pkts := Packetize(5, events, 4)
	r := NewReassembler(5)
	unchecked := NewReassembler(5)
	unchecked.SkipCRC = true
	corrupt := 0
	for i, p := range pkts {
		f, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			f[len(f)-1] ^= 0xFF // mangle the CRC
			corrupt++
		}
		if err := r.AddFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := unchecked.AddFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	_, st := r.Recover()
	if st.PacketsCorrupted != corrupt {
		t.Fatalf("PacketsCorrupted = %d, want %d", st.PacketsCorrupted, corrupt)
	}
	if st.PacketsDelivered != len(pkts)-corrupt {
		t.Fatalf("PacketsDelivered = %d, want %d", st.PacketsDelivered, len(pkts)-corrupt)
	}
	if _, ust := unchecked.Recover(); ust.PacketsCorrupted != 0 || ust.PacketsDelivered != len(pkts) {
		t.Fatalf("unchecked receiver: %+v, want all %d packets delivered", ust, len(pkts))
	}
	// A CRC-validated packet from a foreign mote is a routing bug, not
	// noise — the checksum vouches for the mote ID.
	foreign, _ := (&Packet{MoteID: 6, Seq: 0, Events: []mote.TraceEvent{{ID: 0, Tick: 1}}}).MarshalBinary()
	if err := r.AddFrame(foreign); err == nil {
		t.Fatal("foreign mote frame accepted")
	}
	// Without the check the same mismatch is indistinguishable from a bit
	// flip in the ID field: rejected and counted, never an error.
	if err := unchecked.AddFrame(foreign); err != nil {
		t.Fatalf("unchecked foreign frame errored: %v", err)
	}
	if _, ust := unchecked.Recover(); ust.PacketsCorrupted != 1 {
		t.Fatalf("unchecked foreign frame not counted corrupt: %d, want 1", ust.PacketsCorrupted)
	}
	// Reset keeps the receiver unchecked.
	unchecked.Reset(5)
	if err := unchecked.AddFrame(foreign); err != nil {
		t.Fatalf("Reset dropped SkipCRC: %v", err)
	}
}

// An epoch marker (watchdog reset) inside a segment truncates the frames
// open at the crash; invocations completed before it and started after it
// both survive.
func TestSalvageEpochMarker(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: EnterID(0), Tick: 1}, {ID: ExitID(0), Tick: 5}, // completes pre-crash
		{ID: EnterID(0), Tick: 6}, // open at the crash
		{ID: mote.EpochMarkID, Tick: 8},
		{ID: EnterID(0), Tick: 10}, {ID: ExitID(0), Tick: 14}, // post-reboot
	}
	r := NewReassembler(2)
	for _, p := range Packetize(2, events, 3) {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs, st := r.Recover()
	if len(ivs) != 2 {
		t.Fatalf("recovered %d intervals, want 2: %+v", len(ivs), ivs)
	}
	if ivs[0].EnterTick != 1 || ivs[1].EnterTick != 10 {
		t.Fatalf("wrong survivors: %+v", ivs)
	}
	if st.InvocationsDiscarded != 1 {
		t.Fatalf("discarded = %d, want 1 (the frame open at the crash)", st.InvocationsDiscarded)
	}
}

// TestSalvagePowerMarker: a power marker (checkpoint restore) dooms the
// invocations that straddle it — they are counted as lost partials per
// procedure and their exits are discarded — while everything completed
// before the marker or opened after it survives, including children of a
// doomed frame.
func TestSalvagePowerMarker(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: EnterID(0), Tick: 1},                           // main: open across the outage — doomed
		{ID: EnterID(1), Tick: 2}, {ID: ExitID(1), Tick: 5}, // completes pre-outage
		{ID: EnterID(1), Tick: 6}, // handler: open at the outage — doomed
		{ID: mote.PowerMarkID, Tick: 100},
		{ID: ExitID(1), Tick: 110},                              // doomed handler's exit: spans the outage
		{ID: EnterID(1), Tick: 111}, {ID: ExitID(1), Tick: 115}, // clean post-restore child of doomed main
		{ID: ExitID(0), Tick: 120}, // doomed main's exit
	}
	r := NewReassembler(3)
	for _, p := range Packetize(3, events, 4) {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs, st := r.Recover()
	if len(ivs) != 2 {
		t.Fatalf("recovered %d intervals, want 2: %+v", len(ivs), ivs)
	}
	if ivs[0].EnterTick != 2 || ivs[1].EnterTick != 111 {
		t.Fatalf("wrong survivors: %+v", ivs)
	}
	if st.LostPartials != 2 {
		t.Fatalf("lost partials = %d, want 2 (main and the open handler)", st.LostPartials)
	}
	if st.LostPartialsByProc[0] != 1 || st.LostPartialsByProc[1] != 1 {
		t.Fatalf("per-proc lost partials = %v", st.LostPartialsByProc)
	}
	if st.InvocationsDiscarded != 2 {
		t.Fatalf("discarded = %d, want 2 (the doomed pair)", st.InvocationsDiscarded)
	}
}

// TestSalvagePowerMarkerNoDoubleCount: a frame that stays open across
// several restores is one lost partial, not one per marker; a cold boot
// (epoch marker) after a restore must not re-count already-doomed frames,
// and its own truncations are lost partials too.
func TestSalvagePowerMarkerNoDoubleCount(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: EnterID(2), Tick: 1},
		{ID: mote.PowerMarkID, Tick: 10},
		{ID: mote.PowerMarkID, Tick: 20}, // second outage, same open frame
		{ID: EnterID(3), Tick: 25},       // opened after the restores
		{ID: mote.EpochMarkID, Tick: 30}, // cold boot truncates both
		{ID: EnterID(2), Tick: 40}, {ID: ExitID(2), Tick: 44},
	}
	r := NewReassembler(4)
	for _, p := range Packetize(4, events, 0) {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs, st := r.Recover()
	if len(ivs) != 1 || ivs[0].EnterTick != 40 {
		t.Fatalf("survivors = %+v, want the post-reboot pair", ivs)
	}
	// Proc 2's frame: doomed once at the first marker. Proc 3's frame:
	// truncated by the cold boot. The second power marker adds nothing.
	if st.LostPartials != 2 {
		t.Fatalf("lost partials = %d, want 2", st.LostPartials)
	}
	if st.LostPartialsByProc[2] != 1 || st.LostPartialsByProc[3] != 1 {
		t.Fatalf("per-proc lost partials = %v", st.LostPartialsByProc)
	}
	if st.InvocationsDiscarded != 2 {
		t.Fatalf("discarded = %d, want 2", st.InvocationsDiscarded)
	}
}

// TestSalvageEpochMarkerCountsLostPartials: frames truncated by a cold
// boot are power-truncated executions — the survival-bias correction needs
// them counted per procedure just like restore-doomed frames.
func TestSalvageEpochMarkerCountsLostPartials(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: EnterID(0), Tick: 1},
		{ID: EnterID(1), Tick: 3},
		{ID: mote.EpochMarkID, Tick: 9},
		{ID: EnterID(0), Tick: 10}, {ID: ExitID(0), Tick: 12},
	}
	r := NewReassembler(5)
	for _, p := range Packetize(5, events, 0) {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ivs, st := r.Recover()
	if len(ivs) != 1 {
		t.Fatalf("recovered %d intervals, want 1", len(ivs))
	}
	if st.LostPartials != 2 || st.LostPartialsByProc[0] != 1 || st.LostPartialsByProc[1] != 1 {
		t.Fatalf("lost partials = %d %v, want one each for procs 0 and 1", st.LostPartials, st.LostPartialsByProc)
	}
}

// TestSalvageGapIsNotLostPartial: channel loss truncates invocations too,
// but those are not power events — they must stay out of LostPartials or
// the survival-bias correction would conflate radio loss with mote death.
func TestSalvageGapIsNotLostPartial(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: EnterID(0), Tick: 1}, {ID: ExitID(0), Tick: 5},
		{ID: EnterID(0), Tick: 6}, {ID: ExitID(0), Tick: 9},
		{ID: EnterID(0), Tick: 10}, {ID: ExitID(0), Tick: 14},
	}
	pkts := Packetize(6, events, 3)
	r := NewReassembler(6)
	if err := r.Add(pkts[0]); err != nil {
		t.Fatal(err)
	}
	// pkts[1] lost: invocation 2 is split across the gap, invocation 3's
	// exit is in the lost packet.
	ivs, st := r.Recover()
	if len(ivs) != 1 {
		t.Fatalf("recovered %d intervals, want 1", len(ivs))
	}
	if st.InvocationsDiscarded == 0 {
		t.Fatal("gap should discard the split invocations")
	}
	if st.LostPartials != 0 || st.LostPartialsByProc != nil {
		t.Fatalf("channel loss counted as lost partials: %d %v", st.LostPartials, st.LostPartialsByProc)
	}
}
