package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"codetomo/internal/compile"
	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
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

	out1, st1 := transmitFrames(lc, nil, frames, stats.NewRNG(5))
	out2, st2 := transmitFrames(lc, nil, frames, stats.NewRNG(5))
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
	// Deliveries append to dst, and the reorder pass leaves what dst
	// already held in place.
	prefix := frames[:2:2]
	out4, st4 := transmitFrames(lc, prefix, frames, stats.NewRNG(5))
	if st4 != st1 || !reflect.DeepEqual(out4, append(frames[:2:2], out1...)) {
		t.Fatal("appending to a non-empty list changed the deliveries")
	}

	// A perfect channel is the identity.
	out3, st3 := transmitFrames(LinkConfig{}, nil, frames, stats.NewRNG(5))
	if !reflect.DeepEqual(out3, frames) || st3.Dropped+st3.Duplicated+st3.Reordered+st3.Corrupted != 0 {
		t.Fatal("perfect channel altered the stream")
	}
}

// With ReorderProb = 1 every draw fires, and the skip-after-swap rule
// must yield pairwise swaps — not a cascade carrying element 0 to the end.
// The frames' clean sequences must move with them.
func TestReorderPassNoCascade(t *testing.T) {
	l := link{delivered: [][]byte{{9}, {0}, {1}, {2}, {3}}, clean: []int32{9, 0, 1, -1, 3}}
	swaps := l.reorder(1, 1, stats.NewRNG(1))
	want := link{delivered: [][]byte{{9}, {1}, {0}, {3}, {2}}, clean: []int32{9, 1, 0, 3, -1}}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("reorder cascaded or split a delivery from its sequence: got %v, want %v", l, want)
	}
	if swaps != 2 {
		t.Fatalf("swaps = %d, want 2", swaps)
	}
}

func syntheticFrames(t *testing.T, n int) [][]byte {
	frames, _ := syntheticUpload(t, n)
	return frames
}

// syntheticUpload is n invocations packetized four events a packet, as
// frames and as the packets they encode.
func syntheticUpload(t *testing.T, n int) ([][]byte, []trace.Packet) {
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
	return frames, pkts
}

// transmitFrames runs one transmit on a link that already delivered dst.
func transmitFrames(lc LinkConfig, dst, frames [][]byte, rng *stats.RNG) ([][]byte, LinkStats) {
	l := link{delivered: dst, clean: make([]int32, len(dst))}
	st := l.transmit(lc, frames, nil, rng)
	return l.delivered, st
}

// transmitARQ runs one upload through arq on a fresh link and returns its
// deliveries.
func transmitARQ(lc LinkConfig, frames [][]byte, pkts []trace.Packet, rng *stats.RNG, rx *trace.Reassembler) ([][]byte, LinkStats, ARQStats, error) {
	var l link
	st, ast, err := l.arq(lc, frames, pkts, rng, rx)
	return l.delivered, st, ast, err
}

func TestTransmitFramesCorruption(t *testing.T) {
	frames := syntheticFrames(t, 60)
	lc := LinkConfig{CorruptProb: 0.5}

	out1, st1 := transmitFrames(lc, nil, frames, stats.NewRNG(7))
	out2, st2 := transmitFrames(lc, nil, frames, stats.NewRNG(7))
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
			t.Fatalf("transmit mutated source frame %d", i)
		}
	}
}

func TestTransmitARQRecovers(t *testing.T) {
	frames, pkts := syntheticUpload(t, 80)
	lc := LinkConfig{
		DropProb:    0.3,
		CorruptProb: 0.1,
		ARQ:         ARQConfig{MaxRetries: 8, BackoffBaseTicks: 64},
	}
	rx := trace.NewReassembler(1)
	delivered, st, ast, err := transmitARQ(lc, frames, pkts, stats.NewRNG(11), rx)
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
	d2, st2, ast2, err := transmitARQ(lc, frames, pkts, stats.NewRNG(11), trace.NewReassembler(1))
	if err != nil || st != st2 || ast != ast2 || !reflect.DeepEqual(delivered, d2) {
		t.Fatal("ARQ is not deterministic under a fixed seed")
	}

	// ARQ disabled: identical to one transmit.
	plain := LinkConfig{DropProb: 0.3, CorruptProb: 0.1}
	dP, stP := transmitFrames(plain, nil, frames, stats.NewRNG(11))
	dA, stA, astA, err := transmitARQ(plain, frames, pkts, stats.NewRNG(11), trace.NewReassembler(1))
	if err != nil || stP != stA || astA != (ARQStats{}) || !reflect.DeepEqual(dP, dA) {
		t.Fatal("disabled ARQ does not reduce to one transmit")
	}

	// A receive window for another mote refuses the first intact frame:
	// the upload must fail, not vanish into the wrong stream.
	for _, c := range []LinkConfig{lc, plain} {
		for _, p := range [][]trace.Packet{pkts, nil} {
			if _, _, _, err := transmitARQ(c, frames, p, stats.NewRNG(11), trace.NewReassembler(2)); err == nil {
				t.Fatalf("ARQ %d: frames from mote 1 accepted by mote 2's receive window", c.ARQ.MaxRetries)
			}
		}
	}
}

// TestReceivePathsAgree is the clean-delivery path's differential test:
// over seeded mixes of drop, duplication, reordering and corruption, with
// ARQ on and off and with and without SkipCRC, an upload received with the
// sender's packets standing in for unchanged deliveries must leave every
// figure exactly as receiving every delivery through AddFrame does: the
// deliveries, LinkStats, ARQStats, UplinkStats and the recovered
// intervals. A window for another mote must fail, or under SkipCRC count
// corruption, the same way on both paths.
func TestReceivePathsAgree(t *testing.T) {
	frames, pkts := syntheticUpload(t, 120)
	cleanSeen, flippedSeen := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, mix := range []LinkConfig{
			{DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.3, CorruptProb: 0.2},
			{DropProb: 0.05, CorruptProb: 0.02},
			{DupProb: 0.5, ReorderProb: 0.5, CorruptProb: 0.5},
			{CorruptProb: 1},
			{},
		} {
			for _, retries := range []int{0, 3} {
				for _, skip := range []bool{false, true} {
					for _, rxID := range []uint16{1, 2} {
						lc := mix
						lc.ARQ.MaxRetries, lc.SkipCRC = retries, skip
						run := func(pkts []trace.Packet) (link, LinkStats, ARQStats, []trace.Interval, trace.UplinkStats, error) {
							rx := trace.NewReassembler(rxID)
							rx.SkipCRC = skip
							var l link
							st, ast, err := l.arq(lc, frames, pkts, stats.NewRNG(seed), rx)
							ivs, ust := rx.Recover()
							return l, st, ast, ivs, ust, err
						}
						l, st, ast, ivs, ust, err := run(pkts)
						lR, stR, astR, ivsR, ustR, errR := run(nil)
						tag := func() string { return fmt.Sprintf("seed %d link %+v rx %d", seed, lc, rxID) }
						if (err == nil) != (errR == nil) || st != stR || ast != astR {
							t.Fatalf("%s: clean path %v %+v %+v, AddFrame path %v %+v %+v", tag(), err, st, ast, errR, stR, astR)
						}
						if !reflect.DeepEqual(l.delivered, lR.delivered) || !reflect.DeepEqual(l.clean, lR.clean) {
							t.Fatalf("%s: deliveries differ", tag())
						}
						if err == nil && (!reflect.DeepEqual(ivs, ivsR) || !reflect.DeepEqual(ust, ustR)) {
							t.Fatalf("%s: recovery differs:\n%+v\n%+v", tag(), ust, ustR)
						}
						for _, s := range l.clean {
							if s >= 0 {
								cleanSeen++
							} else {
								flippedSeen++
							}
						}
					}
				}
			}
		}
	}
	if cleanSeen == 0 || flippedSeen == 0 {
		t.Fatalf("%d clean and %d flipped deliveries: both paths must run", cleanSeen, flippedSeen)
	}
}

// TestSensorReuseMatchesFresh runs every workload regime's sensor on a
// worker that reuses it across motes and requires each mote to draw what a
// fresh worker's new sensor draws, so the stateful regimes (bursty,
// regime, diurnal) start every mote from their initial state.
func TestSensorReuseMatchesFresh(t *testing.T) {
	draw := func(w *streamWorker, spec MoteSpec) []uint16 {
		mc, err := w.moteConfig(SimConfig{Mote: mote.DefaultConfig()}, spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint16, 2000)
		for i := range out {
			out[i] = mc.Sensor.Next()
		}
		return out
	}
	for _, name := range workload.RegimeNames() {
		reused := newStreamWorker(SimConfig{})
		for seed := int64(1); seed <= 4; seed++ {
			spec := MoteSpec{ID: uint16(seed), Workload: name, Seed: seed}
			got := draw(reused, spec)
			if want := draw(newStreamWorker(SimConfig{}), spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mote %d on a reused sensor draws differently from a fresh one", name, seed)
			}
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

// TestSamplesRounds pins the round split: each mote's durations of a
// procedure are cut into runs of ceil(n/rounds), in completion order, and
// run r of every mote lands in round r.
func TestSamplesRounds(t *testing.T) {
	cfg := SimConfig{Prog: []isa.Instr{{Op: isa.TRACE, Imm: 3}}, Rounds: 2}
	w := newStreamWorker(cfg)
	iv := func(p int, ticks uint64) trace.Interval { return trace.Interval{ProcIndex: p, ExitTick: ticks} }
	// Proc 0: mote 0 contributes {1,2,3},{4,5}; mote 1 contributes {6,7},{8}.
	// Proc 1 has one sample: all of it lands in round 0. Proc 2 is not in
	// the program, so its interval is dropped.
	w.fold([]trace.Interval{iv(0, 1), iv(1, 10), iv(0, 2), iv(0, 3), iv(2, 9), iv(0, 4), iv(0, 5)}, 2, 1)
	w.fold([]trace.Interval{iv(0, 6), iv(0, 7), iv(0, 8)}, 2, 1)
	want := Samples{
		{tomography.CountSamples([]float64{1, 2, 3, 6, 7}), tomography.CountSamples([]float64{4, 5, 8})},
		{tomography.CountSamples([]float64{10}), {}},
	}
	if !reflect.DeepEqual(w.samples, want) {
		t.Fatalf("samples = %v, want %v", w.samples, want)
	}
	var merged Samples
	merged.Merge(w.samples)
	merged.Merge(w.samples)
	if merged[0][1].N() != 6 || merged[1][0].N() != 2 {
		t.Fatalf("merging twice = %v", merged)
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
