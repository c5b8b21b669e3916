package fleet

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// sampleCount returns how many samples s holds.
func sampleCount(s Samples) int {
	n := 0
	for _, rounds := range s {
		for _, h := range rounds {
			n += h.N()
		}
	}
	return n
}

// simulateReference is the fresh-machine-per-mote engine the streaming
// pipeline replaced, kept as its differential oracle: each mote runs on
// its own mote.New with fresh streams and buffers, one after another, and
// its delivered frames are decoded after the fact by a fresh Reassembler,
// so the engine's fused receive window is checked, not assumed. Each
// mote's durations of a procedure are cut into cfg.Rounds runs of
// ceil(n/Rounds) and run r merged into round r, as the base station's
// uplink rounds were cut before the engine folded them. Results carry
// Frames and BranchStats whatever KeepUpload says.
func simulateReference(cfg SimConfig, specs []MoteSpec) ([]MoteResult, Samples, error) {
	out := make([]MoteResult, len(specs))
	rounds := max(cfg.Rounds, 1)
	samples := newSamples(tracedProcs(cfg.Prog), rounds)
	for i, spec := range specs {
		w := newStreamWorker(cfg)
		mc, err := w.moteConfig(cfg, spec)
		if err != nil {
			return nil, nil, err
		}
		m := mote.New(cfg.Prog, mc)
		if err := runMachine(m, cfg); err != nil {
			return nil, nil, err
		}
		ls, ast, events, err := w.uplink(m, cfg, spec)
		if err != nil {
			return nil, nil, err
		}
		frames := w.link.delivered
		r := trace.NewReassembler(spec.ID)
		r.SkipCRC = cfg.Link.SkipCRC
		for _, f := range frames {
			if err := r.AddFrame(f); err != nil {
				return nil, nil, err
			}
		}
		ivs, ust := r.Recover()
		for p, ticks := range trace.ExclusiveByProc(ivs) {
			if p >= len(samples) {
				continue
			}
			durs := trace.DurationsCycles(ticks, cfg.Mote.TickDiv)
			chunk := (len(durs) + rounds - 1) / rounds
			for b := 0; b*chunk < len(durs); b++ {
				samples[p][b].Merge(tomography.CountSamples(durs[b*chunk : min((b+1)*chunk, len(durs))]))
			}
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
			Frames:       frames,
			BranchStats:  m.BranchStats(),
		}
	}
	return out, samples, nil
}

// simulateSamples is SimulateStream that also merges every cohort's
// Samples into the fleet's.
func simulateSamples(cfg SimConfig, specs []MoteSpec) ([]MoteResult, Samples, []mote.BranchStat, error) {
	out := make([]MoteResult, len(specs))
	var samples Samples
	oracle, err := SimulateSamplesOn(NewPool(cmp.Or(cfg.Workers, 4)), cfg, specs, func(first int, cohort []MoteResult, s Samples) error {
		copy(out[first:], cohort)
		samples.Merge(s)
		return nil
	})
	return out, samples, oracle, err
}

// TestStreamMatchesMaterialized is the streaming pipeline's differential
// acceptance: on a hostile channel (loss, duplication, reordering,
// corruption, and either ARQ or an unchecked receiver), every per-mote
// figure the streaming path produces — frames, link/ARQ/uplink accounting,
// machine stats, ground truth — must be bit-identical to the
// fresh-machine reference, the fleet's samples must equal the reference's
// round by round, and the dense fleet oracle must match the map-merged
// one. One worker runs all three cohorts, the last one short, on one
// reused machine and receive window, so a mote's kept ground truth must
// survive the next mote's Reset, and so must the window's SkipCRC, across
// cohort boundaries too.
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
			cfg.Workers = 1
			cfg.Rounds = 3
			checkStreamMatchesReference(t, cfg, fleetSpecs(2*cohortSize+3))
		})
	}
}

func checkStreamMatchesReference(t *testing.T, cfg SimConfig, specs []MoteSpec) {
	t.Helper()
	want, wantSamples, err := simulateReference(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSamples, dense, err := simulateSamples(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSamples, wantSamples) {
		t.Fatalf("samples diverged:\nstream %v\nref    %v", gotSamples, wantSamples)
	}
	if n := sampleCount(gotSamples); n == 0 {
		t.Fatal("no samples recovered")
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

// TestStreamDeterminismAtScale pins the streaming contract at fleet scale:
// ten thousand motes (a thousand under -short) produce bit-identical
// results and oracle whatever the worker count and GOMAXPROCS, including
// more workers than cores.
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
	cfg.Rounds = 4
	specs := fleetSpecs(n)

	type variant struct{ workers, maxprocs int }
	variants := []variant{{1, 1}, {3, 2}, {8, 4}, {5, 1}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base []MoteResult
	var baseSamples Samples
	var baseOracle []mote.BranchStat
	for _, v := range variants {
		c := cfg
		c.Workers = v.workers
		runtime.GOMAXPROCS(v.maxprocs)
		out, samples, oracle, err := simulateSamples(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, baseSamples, baseOracle = out, samples, oracle
			// The sweep must exercise real signal: recovered samples and a
			// populated oracle.
			if got := sampleCount(samples); got < n {
				t.Fatalf("only %d recovered samples across %d motes", got, n)
			}
			continue
		}
		if !reflect.DeepEqual(out, base) {
			t.Fatalf("workers=%d GOMAXPROCS=%d: per-mote results diverged from workers=1 GOMAXPROCS=1", v.workers, v.maxprocs)
		}
		if !reflect.DeepEqual(samples, baseSamples) {
			t.Fatalf("workers=%d GOMAXPROCS=%d: fleet samples diverged", v.workers, v.maxprocs)
		}
		if !reflect.DeepEqual(oracle, baseOracle) {
			t.Fatalf("workers=%d GOMAXPROCS=%d: fleet oracle diverged", v.workers, v.maxprocs)
		}
	}
}

// TestStreamErrors pins the failure contract: no motes, stateful
// predictors, bad workloads, and sink errors all abort with a useful
// error instead of a partial result, and a mote that fails stops the
// cohorts after its own from reaching the sink.
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
	bad = fleetSpecs(2*cohortSize + 1) // three cohorts
	bad[0].Workload = "no-such-regime"
	sank := false
	_, err = SimulateStreamOn(NewPool(1), cfg, bad, func(int, []MoteResult) error {
		sank = true
		return nil
	})
	if err == nil || sank {
		t.Fatalf("mote failure in cohort 0: err %v, sink called %v; want an error and no sink call", err, sank)
	}
}

// TestPoolEach pins Pool.Each's contract on one pool shared by two
// concurrent calls: every index runs exactly once per call, at most
// Workers() calls run at once across both, and w stays below
// min(n, Workers()).
func TestPoolEach(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	var (
		mu            sync.Mutex
		running, peak int
		wg            sync.WaitGroup
	)
	for _, n := range []int{2, 50} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran := make([]atomic.Int32, n)
			pool.Each(n, func(w, i int) {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				defer func() { mu.Lock(); running--; mu.Unlock() }()
				if w < 0 || w >= min(n, workers) {
					t.Errorf("n=%d: call %d on goroutine %d, want below %d", n, i, w, min(n, workers))
				}
				ran[i].Add(1)
				time.Sleep(time.Millisecond)
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("n=%d: index %d ran %d times, want 1", n, i, got)
				}
			}
		}()
	}
	wg.Wait()
	if peak > workers {
		t.Fatalf("%d calls ran at once on a %d-worker pool", peak, workers)
	}
}
