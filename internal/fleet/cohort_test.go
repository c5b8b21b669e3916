package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/trace"
)

// simulateReference is the fresh-machine-per-mote engine the streaming
// pipeline replaced, kept as its differential oracle: each mote runs on
// its own mote.New with fresh streams and buffers, one after another, and
// its delivered frames are decoded after the fact by a fresh Reassembler,
// so the engine's fused receive window is checked, not assumed. Results
// carry Frames and BranchStats whatever KeepUpload says.
func simulateReference(cfg SimConfig, specs []MoteSpec) ([]MoteResult, error) {
	out := make([]MoteResult, len(specs))
	for i, spec := range specs {
		w := newStreamWorker(cfg)
		mc, err := w.moteConfig(cfg, spec)
		if err != nil {
			return nil, err
		}
		m := mote.New(cfg.Prog, mc)
		if err := runMachine(m, cfg); err != nil {
			return nil, err
		}
		frames, ls, ast, events, err := w.uplink(m, cfg, spec)
		if err != nil {
			return nil, err
		}
		r := trace.NewReassembler(spec.ID)
		r.SkipCRC = cfg.Link.SkipCRC
		for _, f := range frames {
			if err := r.AddFrame(f); err != nil {
				return nil, err
			}
		}
		ivs, ust := r.Recover()
		durs := make(map[int][]float64)
		for p, ticks := range trace.ExclusiveByProc(ivs) {
			durs[p] = trace.DurationsCycles(ticks, cfg.Mote.TickDiv)
		}
		var gross uint64
		for _, iv := range ivs {
			gross += iv.GrossTicks()
		}
		out[i] = MoteResult{
			Spec:         spec,
			Link:         ls,
			ARQ:          ast,
			Uplink:       ust,
			EventsLogged: events,
			Stats:        m.Stats(),
			GrossTicks:   gross,
			Durations:    durs,
			Frames:       frames,
			BranchStats:  m.BranchStats(),
		}
	}
	return out, nil
}

// TestStreamMatchesMaterialized is the streaming pipeline's differential
// acceptance: on a hostile channel (loss, duplication, reordering,
// corruption, and either ARQ or an unchecked receiver), every per-mote
// figure the streaming path produces — frames, link/ARQ/uplink accounting,
// durations, machine stats, ground truth — must be bit-identical to the
// fresh-machine reference, and the dense fleet oracle must match the
// map-merged one. Cohorts of two put consecutive motes on one reused
// machine and receive window, so a mote's kept ground truth must survive
// the next mote's Reset, and so must the window's SkipCRC.
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name string
		link func(*LinkConfig)
	}{
		{"arq", func(lc *LinkConfig) { lc.CorruptProb, lc.ARQ.MaxRetries = 0.05, 2 }},
		{"skipcrc", func(lc *LinkConfig) { lc.CorruptProb, lc.SkipCRC = 0.2, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := buildFleet(t)
			cfg.Link.DropProb, cfg.Link.DupProb, cfg.Link.ReorderProb = 0.2, 0.1, 0.1
			tc.link(&cfg.Link)
			cfg.KeepUpload = true
			cfg.Cohort = 2 // force multiple cohorts and machine reuse
			checkStreamMatchesReference(t, cfg, fleetSpecs(7))
		})
	}
}

func checkStreamMatchesReference(t *testing.T, cfg SimConfig, specs []MoteSpec) {
	t.Helper()
	want, err := simulateReference(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, dense, err := SimulateStream(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streaming returned %d motes, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(g.Spec, w.Spec) {
			t.Fatalf("mote %d: spec mismatch", i)
		}
		if !reflect.DeepEqual(g.Frames, w.Frames) {
			t.Fatalf("mote %d: delivered frames diverged", i)
		}
		if g.Link != w.Link || g.ARQ != w.ARQ {
			t.Fatalf("mote %d: link stats diverged:\nstream %+v %+v\nref    %+v %+v", i, g.Link, g.ARQ, w.Link, w.ARQ)
		}
		if !reflect.DeepEqual(g.Uplink, w.Uplink) {
			t.Fatalf("mote %d: uplink stats diverged:\nstream %+v\nref    %+v", i, g.Uplink, w.Uplink)
		}
		if g.EventsLogged != w.EventsLogged || g.Stats != w.Stats {
			t.Fatalf("mote %d: mote stats diverged", i)
		}
		if !reflect.DeepEqual(g.Durations, w.Durations) {
			t.Fatalf("mote %d: durations diverged", i)
		}
		if g.GrossTicks != w.GrossTicks {
			t.Fatalf("mote %d: gross ticks %d, want %d", i, g.GrossTicks, w.GrossTicks)
		}
		if !reflect.DeepEqual(g.BranchStats, w.BranchStats) {
			t.Fatalf("mote %d: ground-truth branch stats diverged", i)
		}
	}
	wantOracle := MergeBranchStats(want)
	gotOracle := DenseBranchStats(dense)
	if len(gotOracle) != len(wantOracle) {
		t.Fatalf("oracle has %d branches, want %d", len(gotOracle), len(wantOracle))
	}
	for pc, w := range wantOracle {
		g := gotOracle[pc]
		if g == nil || *g != *w {
			t.Fatalf("oracle pc %d: %+v, want %+v", pc, g, w)
		}
	}
}

// streamProg is a minimal raw-ISA instrumented workload for the large
// determinism sweep: proc 0 (TRACE 0/1) runs a few sensor-dependent,
// branchy invocations and halts — a few hundred cycles per mote, so tens
// of thousands of motes stay cheap even under the race detector.
func streamProg() []isa.Instr {
	return []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 6},
		{Op: isa.LDI, Rd: 5, Imm: 3},
		{Op: isa.TRACE, Imm: 0}, // 2: invocation enter
		{Op: isa.IN, Rd: 2, Imm: isa.PortADC},
		{Op: isa.AND, Rd: 3, Ra: 2, Rb: 5},
		{Op: isa.BNZ, Ra: 3, Imm: 7}, // sensor-dependent branch
		{Op: isa.ADDI, Rd: 4, Ra: 4, Imm: 1},
		{Op: isa.TRACE, Imm: 1}, // 7: invocation exit
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
}

// TestStreamDeterminismAtScale pins the tentpole contract at fleet scale:
// ten thousand motes (a thousand under -short) produce bit-identical
// results and oracle across every combination of worker count and cohort
// size, including cohort 1 (maximal interleaving) and cohorts larger than
// the fleet share of a worker.
func TestStreamDeterminismAtScale(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	cfg := SimConfig{
		Prog:      streamProg(),
		Mote:      mote.DefaultConfig(),
		MaxCycles: 1_000_000,
		Link:      LinkConfig{Seed: 42, DropProb: 0.1, DupProb: 0.05},
	}
	cfg.Mote.RAMWords = 64
	specs := fleetSpecs(n)

	type variant struct{ workers, cohort int }
	variants := []variant{{1, 1}, {3, 64}, {8, 1000}, {5, 0}}
	var base []MoteResult
	var baseOracle []mote.BranchStat
	for _, v := range variants {
		c := cfg
		c.Workers, c.Cohort = v.workers, v.cohort
		out, oracle, err := SimulateStream(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, baseOracle = out, oracle
			// The sweep must exercise real signal: recovered samples and a
			// populated oracle.
			var samples int
			for i := range out {
				samples += len(out[i].Durations[0])
			}
			if samples < n {
				t.Fatalf("only %d recovered samples across %d motes", samples, n)
			}
			continue
		}
		if !reflect.DeepEqual(out, base) {
			t.Fatalf("workers=%d cohort=%d: per-mote results diverged from workers=1 cohort=1", v.workers, v.cohort)
		}
		if !reflect.DeepEqual(oracle, baseOracle) {
			t.Fatalf("workers=%d cohort=%d: fleet oracle diverged", v.workers, v.cohort)
		}
	}
}

// TestStreamErrors pins the failure contract: no motes, stateful
// predictors, bad workloads, and sink errors all abort with a useful
// error instead of a partial result.
func TestStreamErrors(t *testing.T) {
	cfg := buildFleet(t)
	if _, _, err := SimulateStream(cfg, nil); err == nil {
		t.Fatal("no error for an empty fleet")
	}
	bad := fleetSpecs(2)
	bad[1].Workload = "no-such-regime"
	if _, _, err := SimulateStream(cfg, bad); err == nil {
		t.Fatal("no error for an unknown workload")
	}
	cfg2 := cfg
	cfg2.Mote.Predictor = mote.NewBimodal(64)
	if _, _, err := SimulateStream(cfg2, fleetSpecs(1)); err == nil {
		t.Fatal("no error for a trainable predictor")
	}
	sinkErr := fmt.Errorf("sink exploded")
	_, err := SimulateStreamOn(NewPool(2), cfg, fleetSpecs(3), func(int, []MoteResult) error {
		return sinkErr
	})
	if err == nil || !reflect.DeepEqual(err.Error(), "fleet: sink: sink exploded") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

// TestPoolBoundedGoroutines pins the PR-9 Pool fix: submitting far more
// tasks than workers must not spawn a goroutine per task. Ten thousand
// queued tasks behind a gate may add at most the drain workers plus
// scheduler slack — not ten thousand goroutines.
func TestPoolBoundedGoroutines(t *testing.T) {
	pool := NewPool(4)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	before := runtime.NumGoroutine()
	for i := 0; i < 10_000; i++ {
		pool.Go(&wg, func() { <-gate })
	}
	// Give the drain workers a moment to start and park on the gate.
	time.Sleep(20 * time.Millisecond)
	if grew := runtime.NumGoroutine() - before; grew > 64 {
		t.Errorf("10k queued tasks grew goroutines by %d; the pool must stay bounded", grew)
	}
	close(gate)
	wg.Wait()
	// The queue must fully drain and execute every task.
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 100; i++ {
		pool.Go(&wg, func() { mu.Lock(); ran++; mu.Unlock() })
	}
	wg.Wait()
	if ran != 100 {
		t.Fatalf("ran %d of 100 post-drain tasks", ran)
	}
}
