package fleet

import (
	"reflect"
	"testing"

	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

const testProgram = `
func work(v int) int {
	var r int;
	r = 0;
	while (v > 100) {
		v = v - 100;
		r = r + 1;
	}
	if (v > 50) {
		r = r + 10;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 150; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

func buildFleet(t testing.TB) SimConfig {
	t.Helper()
	out, err := compile.Build(testProgram, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	return SimConfig{
		Prog:      out.Code,
		Mote:      mote.DefaultConfig(),
		MaxCycles: 100_000_000,
		Workers:   3,
		Link:      LinkConfig{Seed: 99},
	}
}

func fleetSpecs(n int) []MoteSpec {
	specs := make([]MoteSpec, n)
	names := []string{"gaussian", "uniform", "bursty"}
	for i := range specs {
		specs[i] = MoteSpec{
			ID:               uint16(i),
			Workload:         names[i%len(names)],
			Seed:             100 + int64(i)*7,
			ClockOffsetTicks: uint64(i) * 100_000,
		}
	}
	return specs
}

func TestSimulateLossless(t *testing.T) {
	cfg := buildFleet(t)
	uploads, err := Simulate(cfg, fleetSpecs(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(uploads) != 3 {
		t.Fatalf("got %d uploads", len(uploads))
	}
	for i, up := range uploads {
		if up.Spec.ID != uint16(i) {
			t.Fatalf("upload %d has mote ID %d: order not preserved", i, up.Spec.ID)
		}
		if up.EventsLogged == 0 || len(up.Frames) == 0 {
			t.Fatalf("mote %d logged nothing", i)
		}
		if up.Link.Dropped != 0 || up.Link.Duplicated != 0 {
			t.Fatalf("lossless link mangled mote %d: %+v", i, up.Link)
		}
		ivs, st, err := Reassemble(up)
		if err != nil {
			t.Fatal(err)
		}
		if st.InvocationsDiscarded != 0 || len(ivs) == 0 {
			t.Fatalf("mote %d: %d intervals, %d discarded", i, len(ivs), st.InvocationsDiscarded)
		}
		// Clock skew shifts timestamps, not durations: the first interval
		// must start at or after the mote's offset.
		if up.Spec.ClockOffsetTicks > 0 && ivs[0].EnterTick < up.Spec.ClockOffsetTicks {
			t.Fatalf("mote %d: interval starts at %d, before clock offset %d", i, ivs[0].EnterTick, up.Spec.ClockOffsetTicks)
		}
	}
	// Heterogeneous workloads must actually produce different streams.
	if uploads[0].EventsLogged == uploads[1].EventsLogged &&
		uploads[0].Stats.Cycles == uploads[1].Stats.Cycles {
		t.Fatal("motes 0 and 1 look identical despite different workloads")
	}
}

// The fleet's core determinism contract: identical config and specs give
// bit-for-bit identical uploads regardless of worker count.
func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	cfg := buildFleet(t)
	cfg.Link.DropProb, cfg.Link.DupProb, cfg.Link.ReorderProb = 0.2, 0.1, 0.1
	specs := fleetSpecs(4)

	var runs [][]MoteUpload
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		ups, err := Simulate(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, ups)
	}
	for i := range runs[0] {
		a, b := runs[0][i], runs[1][i]
		if a.Link != b.Link || a.EventsLogged != b.EventsLogged {
			t.Fatalf("mote %d differs across worker counts: %+v vs %+v", i, a.Link, b.Link)
		}
		if a.Stats != b.Stats {
			t.Fatalf("mote %d execution stats differ across worker counts: %+v vs %+v", i, a.Stats, b.Stats)
		}
		if !reflect.DeepEqual(a.Frames, b.Frames) {
			t.Fatalf("mote %d delivered different frame streams", i)
		}
		if !reflect.DeepEqual(a.BranchStats, b.BranchStats) {
			t.Fatalf("mote %d branch stats differ", i)
		}
	}
}

func TestSimulateRejectsStatefulPredictor(t *testing.T) {
	cfg := buildFleet(t)
	cfg.Mote.Predictor = mote.NewBimodal(6)
	if _, err := Simulate(cfg, fleetSpecs(2)); err == nil {
		t.Fatal("stateful predictor accepted")
	}
}

func TestSimulateRejectsUnknownWorkload(t *testing.T) {
	cfg := buildFleet(t)
	specs := fleetSpecs(2)
	specs[1].Workload = "nonesuch"
	if _, err := Simulate(cfg, specs); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTransmitLossyDeterministic(t *testing.T) {
	events, _ := syntheticEvents(50)
	pkts := trace.Packetize(1, events, 4)
	lc := LinkConfig{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2}

	out1, st1 := lc.Transmit(pkts, stats.NewRNG(5))
	out2, st2 := lc.Transmit(pkts, stats.NewRNG(5))
	if st1 != st2 || !reflect.DeepEqual(out1, out2) {
		t.Fatal("same seed produced different channels")
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 {
		t.Fatalf("channel did nothing: %+v", st1)
	}
	if st1.Sent != len(pkts) {
		t.Fatalf("Sent = %d, want %d", st1.Sent, len(pkts))
	}
	if len(out1) != st1.Sent-st1.Dropped+st1.Duplicated {
		t.Fatalf("accounting broken: %d delivered, %+v", len(out1), st1)
	}

	// A perfect channel is the identity.
	out3, st3 := LinkConfig{}.Transmit(pkts, stats.NewRNG(5))
	if !reflect.DeepEqual(out3, pkts) || st3.Dropped+st3.Duplicated+st3.Reordered != 0 {
		t.Fatal("perfect channel altered the stream")
	}
}

// With ReorderProb = 1 every draw fires, and the skip-after-swap rule
// must yield pairwise swaps — not a cascade carrying element 0 to the end.
func TestReorderPassNoCascade(t *testing.T) {
	out := []int{0, 1, 2, 3}
	swaps := reorderPass(out, 1, stats.NewRNG(1))
	want := []int{1, 0, 3, 2}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("reorderPass cascaded: got %v, want %v", out, want)
	}
	if swaps != 2 {
		t.Fatalf("swaps = %d, want 2", swaps)
	}
}

func syntheticFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	events, _ := syntheticEvents(n)
	pkts := trace.Packetize(1, events, 4)
	frames := make([][]byte, len(pkts))
	for i, p := range pkts {
		f, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func TestTransmitFramesCorruption(t *testing.T) {
	frames := syntheticFrames(t, 60)
	lc := LinkConfig{CorruptProb: 0.5}

	out1, st1 := lc.TransmitFrames(frames, stats.NewRNG(7))
	out2, st2 := lc.TransmitFrames(frames, stats.NewRNG(7))
	if st1 != st2 || !reflect.DeepEqual(out1, out2) {
		t.Fatal("same seed produced different channels")
	}
	if st1.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", st1)
	}
	if len(out1) != len(frames) {
		t.Fatalf("corruption-only channel changed frame count: %d vs %d", len(out1), len(frames))
	}
	// Every corrupted frame must be caught by the CRC on decode, and the
	// reassembler must count it as corrupt — not as a drop (satellite:
	// corrupted-packet accounting).
	r := trace.NewReassembler(1)
	for _, f := range out1 {
		if err := r.AddFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	_, ust := r.Recover()
	if ust.PacketsCorrupted != st1.Corrupted {
		t.Fatalf("reassembler counted %d corrupt, channel corrupted %d", ust.PacketsCorrupted, st1.Corrupted)
	}
	if ust.PacketsDelivered != len(frames)-st1.Corrupted {
		t.Fatalf("delivered %d, want %d", ust.PacketsDelivered, len(frames)-st1.Corrupted)
	}

	// Corruption must not mutate the sender's copy of the frame.
	clean := syntheticFrames(t, 60)
	for i := range frames {
		if !reflect.DeepEqual(frames[i], clean[i]) {
			t.Fatalf("TransmitFrames mutated source frame %d", i)
		}
	}
}

// With CorruptProb = 0 the frame-level channel must make exactly the same
// RNG draws as the packet-level one, so both views of one (seed, stream)
// pair agree.
func TestTransmitFramesMatchesTransmit(t *testing.T) {
	events, _ := syntheticEvents(50)
	pkts := trace.Packetize(1, events, 4)
	frames := make([][]byte, len(pkts))
	for i, p := range pkts {
		f, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	lc := LinkConfig{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2}
	outP, stP := lc.Transmit(pkts, stats.NewRNG(5))
	outF, stF := lc.TransmitFrames(frames, stats.NewRNG(5))
	if stP != stF {
		t.Fatalf("stats diverge: packets %+v, frames %+v", stP, stF)
	}
	if len(outP) != len(outF) {
		t.Fatalf("stream lengths diverge: %d vs %d", len(outP), len(outF))
	}
	for i := range outF {
		var p trace.Packet
		if err := p.UnmarshalBinary(outF[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, outP[i]) {
			t.Fatalf("frame %d decodes to %+v, packet channel gave %+v", i, p, outP[i])
		}
	}
}

func TestTransmitARQRecovers(t *testing.T) {
	frames := syntheticFrames(t, 80)
	lc := LinkConfig{
		DropProb:    0.3,
		CorruptProb: 0.1,
		ARQ:         ARQConfig{MaxRetries: 8, BackoffBaseTicks: 64},
	}
	delivered, st, ast := lc.TransmitARQ(frames, stats.NewRNG(11))

	if ast.Rounds == 0 || ast.Retransmissions == 0 {
		t.Fatalf("lossy channel needed no ARQ rounds: %+v", ast)
	}
	if ast.Unrecovered != 0 {
		t.Fatalf("8 retries failed to recover %d sequences (link %+v)", ast.Unrecovered, st)
	}
	// Every sequence number must have arrived intact at least once.
	got := map[uint32]bool{}
	for _, f := range delivered {
		var p trace.Packet
		if p.UnmarshalBinary(f) == nil {
			got[p.Seq] = true
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("ARQ delivered %d/%d distinct sequences", len(got), len(frames))
	}
	// Sent counts every transmission including resends: goodput is against
	// radio airtime.
	if st.Sent != len(frames)+ast.Retransmissions {
		t.Fatalf("Sent = %d, want %d initial + %d resends", st.Sent, len(frames), ast.Retransmissions)
	}
	wantBackoff := uint64(0)
	for r := 1; r <= ast.Rounds; r++ {
		wantBackoff += 64 << uint(r-1)
	}
	if ast.BackoffTicks != wantBackoff {
		t.Fatalf("BackoffTicks = %d, want %d over %d rounds", ast.BackoffTicks, wantBackoff, ast.Rounds)
	}

	// Determinism: same seed, same everything.
	d2, st2, ast2 := lc.TransmitARQ(frames, stats.NewRNG(11))
	if st != st2 || ast != ast2 || !reflect.DeepEqual(delivered, d2) {
		t.Fatal("ARQ is not deterministic under a fixed seed")
	}

	// ARQ disabled: identical to TransmitFrames.
	plain := LinkConfig{DropProb: 0.3, CorruptProb: 0.1}
	dP, stP := plain.TransmitFrames(frames, stats.NewRNG(11))
	dA, stA, astA := plain.TransmitARQ(frames, stats.NewRNG(11))
	if stP != stA || astA != (ARQStats{}) || !reflect.DeepEqual(dP, dA) {
		t.Fatal("disabled ARQ does not reduce to TransmitFrames")
	}
}

func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{DropProb: -0.1},
		{DupProb: 1.5},
		{ReorderProb: 2},
		{CorruptProb: -0.2},
		{EventsPerPacket: -1},
		{PacketVersion: 3},
		{ARQ: ARQConfig{MaxRetries: -1}},
		// ARQ needs checksums to know what to NACK.
		{PacketVersion: trace.PacketVersionLegacy, ARQ: ARQConfig{MaxRetries: 3}},
	}
	for i, lc := range bad {
		if lc.Validate() == nil {
			t.Errorf("case %d: invalid link config accepted: %+v", i, lc)
		}
	}
	good := []LinkConfig{
		{DropProb: 0.5, EventsPerPacket: 16},
		{CorruptProb: 0.2, PacketVersion: trace.PacketVersionCRC, ARQ: ARQConfig{MaxRetries: 4}},
		{PacketVersion: trace.PacketVersionLegacy},
	}
	for i, lc := range good {
		if err := lc.Validate(); err != nil {
			t.Errorf("case %d: valid config rejected: %v", i, err)
		}
	}
}

func TestMergeBranchStats(t *testing.T) {
	cfg := buildFleet(t)
	uploads, err := Simulate(cfg, fleetSpecs(2))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeBranchStats(uploads)
	if len(merged) == 0 {
		t.Fatal("no branch stats merged")
	}
	for pc, st := range merged {
		var taken, notTaken uint64
		for _, up := range uploads {
			if s := up.BranchStats[pc]; s != nil {
				taken += s.Taken
				notTaken += s.NotTaken
			}
		}
		if st.Taken != taken || st.NotTaken != notTaken {
			t.Fatalf("pc %d: merged %+v, want taken=%d notTaken=%d", pc, st, taken, notTaken)
		}
	}
}

func TestBatchStreams(t *testing.T) {
	perMote := []map[int][]float64{
		{0: {1, 2, 3, 4, 5}, 1: {10}},
		{0: {6, 7, 8}},
	}
	rounds := BatchStreams(perMote, 2)
	// Proc 0: mote 0 contributes {1,2,3},{4,5}; mote 1 contributes {6,7},{8}.
	want0 := [][]float64{{1, 2, 3, 6, 7}, {4, 5, 8}}
	if !reflect.DeepEqual(rounds[0], want0) {
		t.Fatalf("proc 0 rounds = %v, want %v", rounds[0], want0)
	}
	// Proc 1 has one sample: all of it lands in round 0.
	if !reflect.DeepEqual(rounds[1][0], []float64{10}) || len(rounds[1][1]) != 0 {
		t.Fatalf("proc 1 rounds = %v", rounds[1])
	}
	// Total samples are conserved.
	total := 0
	for _, rs := range rounds {
		for _, r := range rs {
			total += len(r)
		}
	}
	if total != 9 {
		t.Fatalf("batching lost samples: %d of 9", total)
	}
}

// TestSimulateReassembledMatchesTwoStep pins the fused per-mote pool task
// (simulate + reassemble + duration extraction in one slot) to the
// two-step Simulate-then-Reassemble path, across different pool sizes.
func TestSimulateReassembledMatchesTwoStep(t *testing.T) {
	cfg := buildFleet(t)
	cfg.Link.DropProb = 0.1
	specs := fleetSpecs(3)

	uploads, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		fused, err := SimulateReassembledOn(NewPool(workers), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(uploads) {
			t.Fatalf("workers=%d: %d uploads, want %d", workers, len(fused), len(uploads))
		}
		for i, pu := range fused {
			ivs, ust, err := Reassemble(uploads[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pu.MoteUpload, uploads[i]) {
				t.Fatalf("workers=%d mote %d: upload differs from two-step path", workers, i)
			}
			if !reflect.DeepEqual(pu.Intervals, ivs) || !reflect.DeepEqual(pu.Uplink, ust) {
				t.Fatalf("workers=%d mote %d: reassembly differs from two-step path", workers, i)
			}
			want := make(map[int][]float64)
			for p, ticks := range trace.ExclusiveByProc(ivs) {
				want[p] = trace.DurationsCycles(ticks, cfg.Mote.TickDiv)
			}
			if !reflect.DeepEqual(pu.Durations, want) {
				t.Fatalf("workers=%d mote %d: durations differ from two-step path", workers, i)
			}
		}
	}
}

// syntheticEvents builds a well-nested single-proc log for link tests.
func syntheticEvents(n int) ([]mote.TraceEvent, int) {
	var events []mote.TraceEvent
	tick := uint64(0)
	for i := 0; i < n; i++ {
		tick += 2
		events = append(events, mote.TraceEvent{ID: trace.EnterID(0), Tick: tick})
		tick += 5
		events = append(events, mote.TraceEvent{ID: trace.ExitID(0), Tick: tick})
	}
	return events, n
}
