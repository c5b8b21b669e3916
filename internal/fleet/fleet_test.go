package fleet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

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
	cfg.KeepUpload = true
	uploads, _, err := SimulateStream(cfg, fleetSpecs(3))
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
		r := trace.NewReassembler(up.Spec.ID)
		for _, f := range up.Frames {
			if err := r.AddFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		ivs, st := r.Recover()
		if st.InvocationsDiscarded != 0 || len(ivs) == 0 {
			t.Fatalf("mote %d: %d intervals, %d discarded", i, len(ivs), st.InvocationsDiscarded)
		}
		if !reflect.DeepEqual(st, up.Uplink) {
			t.Fatalf("mote %d: uplink accounting %+v, reassembling the kept frames gives %+v", i, up.Uplink, st)
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
	cfg.KeepUpload = true
	specs := fleetSpecs(4)

	var runs [][]MoteResult
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		ups, _, err := SimulateStream(c, specs)
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

func TestTransmitLossyDeterministic(t *testing.T) {
	frames := syntheticFrames(t, 50)
	lc := LinkConfig{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2}

	out1, st1 := lc.TransmitFrames(frames, stats.NewRNG(5))
	out2, st2 := lc.TransmitFrames(frames, stats.NewRNG(5))
	if st1 != st2 || !reflect.DeepEqual(out1, out2) {
		t.Fatal("same seed produced different channels")
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 {
		t.Fatalf("channel did nothing: %+v", st1)
	}
	if st1.Sent != len(frames) {
		t.Fatalf("Sent = %d, want %d", st1.Sent, len(frames))
	}
	if len(out1) != st1.Sent-st1.Dropped+st1.Duplicated {
		t.Fatalf("accounting broken: %d delivered, %+v", len(out1), st1)
	}

	// A perfect channel is the identity.
	out3, st3 := LinkConfig{}.TransmitFrames(frames, stats.NewRNG(5))
	if !reflect.DeepEqual(out3, frames) || st3.Dropped+st3.Duplicated+st3.Reordered+st3.Corrupted != 0 {
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

func TestTransmitARQRecovers(t *testing.T) {
	frames := syntheticFrames(t, 80)
	lc := LinkConfig{
		DropProb:    0.3,
		CorruptProb: 0.1,
		ARQ:         ARQConfig{MaxRetries: 8, BackoffBaseTicks: 64},
	}
	rx := trace.NewReassembler(1)
	delivered, st, ast, err := lc.TransmitARQ(frames, stats.NewRNG(11), rx)
	if err != nil {
		t.Fatal(err)
	}

	if ast.Rounds == 0 || ast.Retransmissions == 0 {
		t.Fatalf("lossy channel needed no ARQ rounds: %+v", ast)
	}
	if ast.Unrecovered != 0 {
		t.Fatalf("8 retries failed to recover %d sequences (link %+v)", ast.Unrecovered, st)
	}
	// Every sequence number must have arrived intact at least once, and
	// the receive window must hold exactly what a fresh decode of the
	// deliveries does.
	got := map[uint32]bool{}
	fresh := trace.NewReassembler(1)
	for _, f := range delivered {
		var p trace.Packet
		if p.UnmarshalBinary(f) == nil {
			got[p.Seq] = true
		}
		if err := fresh.AddFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("ARQ delivered %d/%d distinct sequences", len(got), len(frames))
	}
	ivs, ust := rx.Recover()
	wantIvs, wantUst := fresh.Recover()
	if !reflect.DeepEqual(ivs, wantIvs) || !reflect.DeepEqual(ust, wantUst) {
		t.Fatalf("receive window diverges from a fresh decode:\n%+v\n%+v", ust, wantUst)
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
	d2, st2, ast2, err := lc.TransmitARQ(frames, stats.NewRNG(11), trace.NewReassembler(1))
	if err != nil || st != st2 || ast != ast2 || !reflect.DeepEqual(delivered, d2) {
		t.Fatal("ARQ is not deterministic under a fixed seed")
	}

	// ARQ disabled: identical to TransmitFrames.
	plain := LinkConfig{DropProb: 0.3, CorruptProb: 0.1}
	dP, stP := plain.TransmitFrames(frames, stats.NewRNG(11))
	dA, stA, astA, err := plain.TransmitARQ(frames, stats.NewRNG(11), trace.NewReassembler(1))
	if err != nil || stP != stA || astA != (ARQStats{}) || !reflect.DeepEqual(dP, dA) {
		t.Fatal("disabled ARQ does not reduce to TransmitFrames")
	}

	// A receive window for another mote refuses the first intact frame:
	// the upload must fail, not vanish into the wrong stream.
	for _, c := range []LinkConfig{lc, plain} {
		if _, _, _, err := c.TransmitARQ(frames, stats.NewRNG(11), trace.NewReassembler(2)); err == nil {
			t.Fatalf("ARQ %d: frames from mote 1 accepted by mote 2's receive window", c.ARQ.MaxRetries)
		}
	}
}

// TestLazyEntropyMatchesEager pins the entropy port a worker arms per
// mote, whose source seeds its register lazily, to an eagerly seeded
// math/rand stream, across re-arming for a new mote both mid-stream and
// before the first draw.
func TestLazyEntropyMatchesEager(t *testing.T) {
	w := newStreamWorker(SimConfig{})
	for _, seed := range []int64{5, -3, 5, 1 << 40} {
		mc, err := w.moteConfig(SimConfig{}, MoteSpec{Seed: seed, Workload: "gaussian"})
		if err != nil {
			t.Fatal(err)
		}
		if seed == -3 {
			continue // re-armed and never drawn
		}
		want := rand.New(rand.NewSource(seed + 7919))
		for i := 0; i < 400; i++ {
			if got, exp := mc.Entropy.Next(), uint16(want.Intn(1<<16)); got != exp {
				t.Fatalf("seed %d draw %d: port %d, math/rand %d", seed, i, got, exp)
			}
		}
	}
}

func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{DropProb: -0.1},
		{DupProb: 1.5},
		{ReorderProb: 2},
		{CorruptProb: -0.2},
		{EventsPerPacket: -1},
		{ARQ: ARQConfig{MaxRetries: -1}},
		// ARQ needs checked CRCs to know what to NACK.
		{SkipCRC: true, ARQ: ARQConfig{MaxRetries: 3}},
	}
	for i, lc := range bad {
		if lc.Validate() == nil {
			t.Errorf("case %d: invalid link config accepted: %+v", i, lc)
		}
	}
	good := []LinkConfig{
		{DropProb: 0.5, EventsPerPacket: 16},
		{CorruptProb: 0.2, ARQ: ARQConfig{MaxRetries: 4}},
		{CorruptProb: 0.2, SkipCRC: true},
	}
	for i, lc := range good {
		if err := lc.Validate(); err != nil {
			t.Errorf("case %d: valid config rejected: %v", i, err)
		}
	}
}

func TestMergeBranchStats(t *testing.T) {
	cfg := buildFleet(t)
	cfg.KeepUpload = true
	uploads, _, err := SimulateStream(cfg, fleetSpecs(2))
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

// Two runs of one seeded fleet differ only in their wall times, so they
// must render the same tables but the last, which holds the walls alone.
func TestStatsTablesWallsLast(t *testing.T) {
	base := Stats{
		Motes: 2, EventsLogged: 1234, EnergyUJ: 56.7, HarvestedUJ: 8.9,
		ARQ:            ARQStats{Rounds: 3, Retransmissions: 7},
		PerMote:        []MoteUplink{{ID: 1, Sent: 40, Delivered: 38}},
		SamplesPerProc: map[string]int{"handler": 400},
		Rounds:         6, Iterations: 41, EstimatedProcs: 2,
	}
	fast, slow := base, base
	fast.SimWall, fast.UplinkWall, fast.EstimateWall = time.Millisecond, 2*time.Microsecond, 3*time.Microsecond
	slow.SimWall, slow.UplinkWall, slow.EstimateWall = 12345678901*time.Nanosecond, 987654321*time.Nanosecond, 55555555*time.Nanosecond
	a, b := fast.Tables(), slow.Tables()
	if len(a) != len(b) {
		t.Fatalf("%d tables vs %d", len(a), len(b))
	}
	last := len(a) - 1
	for i := range last {
		if ra, rb := a[i].Render(), b[i].Render(); ra != rb {
			t.Errorf("table %q depends on the walls:\n%s\nvs\n%s", a[i].Title, ra, rb)
		}
	}
	if a[last].Render() == b[last].Render() {
		t.Errorf("last table %q does not show the walls", a[last].Title)
	}
}
