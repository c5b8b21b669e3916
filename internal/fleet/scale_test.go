package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/mote"
)

// maxScalePeakHeapMB bounds the sampled peak live heap of the 10⁵-mote
// run. The streaming engine keeps one cohort of motes per worker alive: the
// run measures 11 MB at 2 workers and up to 25 MB at 16, where the GC's
// pacing rather than the live heap sets the peak. Retaining every mote's
// result instead would hold the whole fleet live and blow well past it.
const maxScalePeakHeapMB = 32

// TestSimulateStreamScale runs a hundred thousand motes of the sense app,
// four invocations each, through SimulateStreamOn on a perfect channel
// with a counting sink. Every mote must sink exactly once with every
// invocation recovered, and the sampled peak heap must stay within
// maxScalePeakHeapMB: the fleet is never materialized.
func TestSimulateStreamScale(t *testing.T) {
	if raceEnabled {
		t.Skip("a 10⁵-mote fleet is too slow under the race detector; the determinism tests cover the engine there")
	}
	const motes, perMote = 100_000, 4
	app, ok := apps.ByName("sense")
	if !ok {
		t.Fatal("sense app missing")
	}
	src, err := app.Source(perMote)
	if err != nil {
		t.Fatal(err)
	}
	out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	handler := out.Meta.ProcByName[app.Handler].Index
	cfg := SimConfig{
		Prog:      out.Code,
		Mote:      mote.DefaultConfig(),
		MaxCycles: 2_000_000_000,
		Workers:   runtime.GOMAXPROCS(0),
		Link:      LinkConfig{Seed: 105893},
	}
	specs := make([]MoteSpec, motes)
	for i := range specs {
		specs[i] = MoteSpec{
			ID:               uint16(i),
			Workload:         app.Workload,
			Seed:             1234 + int64(i+1)*104729,
			ClockOffsetTicks: uint64(i*997) % (1 << 20),
		}
	}

	runtime.GC()
	var peak uint64
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
		}
	}()

	sunk := make([]int, motes)
	recovered, handled := 0, 0
	_, err = SimulateSamplesOn(NewPool(cfg.Workers), cfg, specs, func(first int, cohort []MoteResult, samples Samples) error {
		for i := range cohort {
			sunk[first+i]++
			recovered += cohort[i].Uplink.InvocationsRecovered
		}
		for _, h := range samples[handler] {
			handled += h.N()
		}
		return nil
	})
	close(done)
	sampler.Wait()
	if err != nil {
		t.Fatal(err)
	}

	for i, n := range sunk {
		if n != 1 {
			t.Fatalf("mote %d sank %d times", i, n)
		}
	}
	// Each mote runs main once and the handler perMote times; a perfect
	// channel loses none of them.
	if want := motes * (perMote + 1); recovered != want {
		t.Errorf("recovered %d invocations, want %d", recovered, want)
	}
	if want := motes * perMote; handled != want {
		t.Errorf("recovered %d handler durations, want %d", handled, want)
	}
	peakMB := float64(peak) / (1 << 20)
	t.Logf("peak heap %.1f MB", peakMB)
	if peakMB > maxScalePeakHeapMB {
		t.Errorf("peak heap %.1f MB, bound %d MB", peakMB, maxScalePeakHeapMB)
	}
}
