package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/report"
)

// scaleSeedStride matches the runfleet per-mote seed derivation so fl3
// motes observe the same workload diversity as the pipeline's fleets.
const scaleSeedStride = 104729

// scaleRun drives the streaming cohort pipeline over n motes with a
// counting sink — simulation, uplink, reassembly, and duration
// extraction, no estimation — and reports throughput and memory.
type scaleRun struct {
	Wall      time.Duration
	Recovered int    // invocations recovered across the fleet (sanity)
	AllocB    uint64 // total bytes allocated during the run
	PeakHeapB uint64 // max observed live heap during the run
}

func runScale(cfg fleet.SimConfig, specs []fleet.MoteSpec) (scaleRun, error) {
	var r scaleRun

	// Memory accounting: total allocation over the run (steady-state cost
	// per mote) and sampled peak live heap (the O(workers × cohort) claim).
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > r.PeakHeapB {
					r.PeakHeapB = ms.HeapAlloc
				}
			}
		}
	}()

	start := time.Now()
	pool := fleet.NewPool(cfg.Workers)
	_, err := fleet.SimulateStreamOn(pool, cfg, specs, func(first int, cohort []fleet.MoteResult) error {
		for i := range cohort {
			r.Recovered += cohort[i].Uplink.InvocationsRecovered
		}
		return nil
	})
	r.Wall = time.Since(start)
	close(done)
	sampleWG.Wait()
	if err != nil {
		return r, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.AllocB = after.TotalAlloc - before.TotalAlloc
	if after.HeapAlloc > r.PeakHeapB {
		r.PeakHeapB = after.HeapAlloc
	}
	return r, nil
}

// FleetScaleSweep (fl3) measures simulation density: how many motes per
// second per core the streaming cohort pipeline sustains as the fleet
// grows from 10^3 to 10^6, across worker counts and GOMAXPROCS. The
// figures of merit are motes/s/core (should be flat — the pipeline is
// embarrassingly parallel with one serialized sink) and B/mote (should be
// flat and small — machine reuse makes per-mote allocation O(results),
// not O(simulation)), with peak heap staying bounded as the fleet grows
// past it.
func FleetScaleSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const perMote = 4 // invocations per mote: density, not statistics
	src, err := app.Source(perMote)
	if err != nil {
		return nil, err
	}
	out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, fmt.Errorf("bench: build %s: %w", app.Name, err)
	}

	maxFleet := c.MaxFleet
	if maxFleet <= 0 {
		maxFleet = 1_000_000
	}
	var sizes []int
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		if n <= maxFleet || len(sizes) == 0 {
			sizes = append(sizes, min(n, maxFleet))
		}
	}
	ncpu := runtime.NumCPU()
	var workerSet []int
	for _, w := range []int{1, 4, ncpu} {
		dup := false
		for _, seen := range workerSet {
			dup = dup || seen == w
		}
		if !dup {
			workerSet = append(workerSet, w)
		}
	}

	t := &report.Table{
		Title:  "FL3: simulation density and scaling (streaming cohort pipeline)",
		Header: []string{"motes", "workers", "procs", "wall s", "motes/s", "motes/s/core", "B/mote", "peak heap MB"},
		Note: fmt.Sprintf("%s, %d invocations per mote, perfect channel, tick=%d cycles, cohort=%d, %d CPUs",
			app.Name, perMote, c.TickDiv, fleet.DefaultCohortSize, ncpu),
	}
	for _, n := range sizes {
		specs := make([]fleet.MoteSpec, n)
		for i := range specs {
			specs[i] = fleet.MoteSpec{
				ID:               uint16(i),
				Workload:         app.Workload,
				Seed:             c.Seed + int64(i+1)*scaleSeedStride,
				ClockOffsetTicks: uint64(i*997) % (1 << 20),
			}
		}
		// Small fleets sweep the worker axis; at 10^5 and beyond only the
		// all-cores row runs (the small sizes already pin per-core scaling).
		rowWorkers := workerSet
		if n >= 100_000 {
			rowWorkers = workerSet[len(workerSet)-1:]
		}
		for _, w := range rowWorkers {
			procs := min(w, ncpu)
			cfg := fleet.SimConfig{
				Prog:      out.Code,
				Mote:      c.mote("", 0).Config(),
				MaxCycles: c.MaxCycles,
				Workers:   w,
				Link:      fleet.LinkConfig{Seed: c.Seed + 104659},
			}
			prev := runtime.GOMAXPROCS(procs)
			r, err := runScale(cfg, specs)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, err
			}
			secs := r.Wall.Seconds()
			rate := float64(n) / secs
			t.AddRow(report.I(n), report.I(w), report.I(procs),
				report.F(secs, 2), report.F(rate, 0), report.F(rate/float64(procs), 0),
				report.I(r.AllocB/uint64(n)), report.F(float64(r.PeakHeapB)/(1<<20), 1))
		}
	}
	return t, nil
}
