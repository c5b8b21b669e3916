package main

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"time"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

// fleetParams sizes the fleet_10k workload.
type fleetParams struct {
	app         string
	motes       int
	invocations int // handler invocations per mote
	warmMotes   int // size of the warm-up fleet run during set-up
}

func defaultFleetParams() fleetParams {
	return fleetParams{app: "sense", motes: 10_000, invocations: 64, warmMotes: 256}
}

// fleetConfig is the pipeline configuration of pipeline_apps on a lossy
// channel with ARQ, simulated on one worker per CPU.
func fleetConfig(seed int64, p fleetParams, workloadName string) codetomo.FleetConfig {
	return codetomo.FleetConfig{
		Config:      pipelineConfig(workloadName, seed),
		Motes:       p.motes,
		Workers:     runtime.NumCPU(),
		DropProb:    0.05,
		CorruptProb: 0.02,
		ARQRetries:  3,
	}
}

// fleetSetup generates the program and config from the seed and runs a
// small fleet once, so the timed runs start with warm code and heap.
func fleetSetup(seed int64, p fleetParams) (string, codetomo.FleetConfig, error) {
	a, ok := apps.ByName(p.app)
	if !ok {
		return "", codetomo.FleetConfig{}, fmt.Errorf("unknown app %q", p.app)
	}
	src, err := a.Source(p.invocations)
	if err != nil {
		return "", codetomo.FleetConfig{}, err
	}
	cfg := fleetConfig(seed, p, a.Workload)
	warm := cfg
	warm.Motes = p.warmMotes
	if _, err := codetomo.RunFleet(src, warm); err != nil {
		return "", codetomo.FleetConfig{}, fmt.Errorf("warm-up fleet: %w", err)
	}
	return src, cfg, nil
}

// sameFleet compares two fleet results on everything but wall times.
func sameFleet(a, b *codetomo.FleetResult) bool {
	x, y := *a, *b
	x.Fleet.SimWall, x.Fleet.UplinkWall, x.Fleet.EstimateWall = 0, 0, 0
	y.Fleet.SimWall, y.Fleet.UplinkWall, y.Fleet.EstimateWall = 0, 0, 0
	return reflect.DeepEqual(x, y)
}

// runFleet runs fleet_10k: codetomo.RunFleet on a 10⁴-mote deployment,
// repeated until the time is up; one operation is one mote.
func runFleet(o options, p fleetParams) (*report, error) {
	r := newReport(o)
	var src string
	var cfg codetomo.FleetConfig
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, c, err := fleetSetup(o.seed, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		src, cfg = s, c
	}
	r.digest = uint64(cfg.Seed)
	if o.trace {
		return r, tracedFleet(o, r, src, cfg)
	}

	var walls []float64
	var first *codetomo.FleetResult
	var allocated uint64
	start := time.Now()
	for time.Since(start) < o.seconds || len(walls)+r.failed == 0 {
		b0, _ := heapAllocs()
		t0 := time.Now()
		res, err := codetomo.RunFleet(src, cfg)
		d := time.Since(t0)
		b1, _ := heapAllocs()
		allocated += b1 - b0
		r.attempted += cfg.Motes
		if err != nil {
			r.fail(cfg.Motes, "RunFleet: %v", err)
			continue
		}
		walls = append(walls, ms(d))
		if first == nil {
			first = res
		} else if !sameFleet(first, res) {
			r.fail(cfg.Motes, "RunFleet result differs between runs")
		}
	}
	if first == nil {
		return nil, fmt.Errorf("every RunFleet failed: %v", r.failures)
	}
	trusted, maeSum := 0, 0.0
	for _, e := range first.Estimates {
		if !e.Fallback && !e.LowConfidence {
			trusted++
			maeSum += e.MAE
		}
	}
	wall := median(walls)
	mae := maeSum / float64(max(trusted, 1))
	r.note("RunFleet wall p50 %.1f ms (n=%d); motes_per_s %.0f at %d motes, Workers=%d",
		wall, len(walls), float64(cfg.Motes)/(wall/1000), cfg.Motes, cfg.Workers)
	r.note("sim %.0f ms, uplink %.1f ms, estimate %.1f ms in the first run",
		ms(first.Fleet.SimWall), ms(first.Fleet.UplinkWall), ms(first.Fleet.EstimateWall))
	r.note("mae_mean %.5f over %d trusted procedures", mae, trusted)
	r.set("run_ms_geomean", wall)
	r.set("ops_per_s", float64(cfg.Motes)/(wall/1000))
	r.set("speedup_geomean", first.Speedup())
	r.set("accuracy_mean", 1-mae)
	r.set("trusted_procs", float64(trusted))
	r.set("alloc_kb_per_op", float64(allocated)/1024/float64(r.attempted))
	r.set("setup_s", median(setups))
	return r, nil
}

// tracedFleet alternates an untraced RunFleet with a traced one until the
// time is up. The traced run wraps RunFleet in a span, samples the live
// heap, and takes the fleet layer's stage walls and counters from the
// result. A replica of the deployment simulation then streams the same
// motes through fleet.SimulateStreamOn to count the mote layer's work;
// its channel counters must equal RunFleet's.
func tracedFleet(o options, r *report, src string, cfg codetomo.FleetConfig) error {
	loc, err := lineCounts(o.root)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin(-1, "", "workload.fleet_10k")
	var passes []passValues
	var plain, traced []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < o.seconds {
		r.attempted += cfg.Motes
		t0 := time.Now()
		want, err := codetomo.RunFleet(src, cfg)
		plain = append(plain, ms(time.Since(t0)))
		if err != nil {
			r.fail(cfg.Motes, "RunFleet: %v", err)
			continue
		}

		pv := maps.Clone(loc)
		r.attempted += cfg.Motes
		t0 = time.Now()
		sp := tr.begin(root, "fleet", "codetomo.RunFleet")
		peak := sampleHeap()
		res, err := codetomo.RunFleet(src, cfg)
		pv["fleet.peak_heap_mb"] = float64(peak()) / (1 << 20)
		tr.end(sp)
		traced = append(traced, ms(time.Since(t0)))
		if err != nil {
			r.fail(cfg.Motes, "traced RunFleet: %v", err)
			continue
		}
		if !sameFleet(want, res) {
			r.fail(cfg.Motes, "traced RunFleet differs from untraced")
		}
		fs := res.Fleet
		pv["fleet.sim_s"] = fs.SimWall.Seconds()
		pv["fleet.uplink_ms"] = ms(fs.UplinkWall)
		pv["fleet.estimate_ms"] = ms(fs.EstimateWall)
		pv["fleet.frames_sent"] = float64(fs.Link.Sent)
		pv["fleet.retransmissions"] = float64(fs.ARQ.Retransmissions)
		if fs.Link.Sent > 0 {
			pv["fleet.goodput_frac"] = float64(fs.Uplink.PacketsDelivered) / float64(fs.Link.Sent)
		}
		pv["fleet.invocations_discarded"] = float64(fs.Uplink.InvocationsDiscarded)
		pv["fleet.rounds"] = float64(fs.Rounds)
		pv["fleet.alloc_kb"] = float64(tr.spans[sp].Bytes) / 1024

		if err := replicaFleetSim(tr, root, src, cfg, fs, pv); err != nil {
			return err
		}
		passes = append(passes, pv)
	}
	tr.end(root)
	return tr.finish(o, r, passes, plain, traced, "RunFleet")
}

// sampleHeap polls the live heap every few milliseconds until the
// returned function is called; that call stops the sampler, waits for it
// and returns the peak seen.
func sampleHeap() func() uint64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapLive(); h > peak {
				peak = h
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// Seed derivations RunFleet uses for its deployment. The replica must
// reproduce them; replicaFleetSim fails loudly if it drifts.
const (
	fleetMoteSeedStride = 104729
	fleetOffsetSeed     = 7253
	fleetLinkSeed       = 104659
)

// replicaFleetSim streams the deployment RunFleet simulates through
// fleet.SimulateStreamOn, recording the instrumented build and the
// simulation as spans and the motes' instruction and cycle totals as the
// mote layer's work. Its channel and reassembly totals must equal want's.
func replicaFleetSim(tr *tracer, parent int, src string, cfg codetomo.FleetConfig, want fleet.Stats, pv passValues) error {
	csp := tr.begin(parent, "compile", "compile.Build")
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	tr.end(csp)
	if err != nil {
		return err
	}
	pv["compile.builds"] = 1
	pv["compile.code_words"] = float64(len(prof.Code))
	pv["compile.build_ms"] = ms(tr.spans[csp].Wall)
	pv["compile.alloc_kb"] = float64(tr.spans[csp].Bytes) / 1024

	mc := mote.DefaultConfig()
	mc.TickDiv = cfg.TickDiv
	mc.Predictor = cfg.Predictor
	sim := fleet.SimConfig{
		Prog:      prof.Code,
		Mote:      mc,
		MaxCycles: cfg.MaxCycles,
		Workers:   cfg.Workers,
		Link: fleet.LinkConfig{
			DropProb:        cfg.DropProb,
			CorruptProb:     cfg.CorruptProb,
			EventsPerPacket: trace.DefaultEventsPerPacket,
			ARQ:             fleet.ARQConfig{MaxRetries: cfg.ARQRetries},
			Seed:            cfg.Seed + fleetLinkSeed,
		},
	}
	offRNG := stats.NewRNG(cfg.Seed + fleetOffsetSeed)
	specs := make([]fleet.MoteSpec, cfg.Motes)
	for i := range specs {
		specs[i] = fleet.MoteSpec{
			ID:               uint16(i),
			Workload:         cfg.Workload,
			Seed:             cfg.Seed + int64(i+1)*fleetMoteSeedStride,
			ClockOffsetTicks: uint64(offRNG.Intn(1 << 20)),
		}
	}
	var got fleet.Stats
	var instr, cycles uint64
	sp := tr.begin(parent, "mote", "fleet.SimulateStreamOn")
	_, err = fleet.SimulateStreamOn(fleet.NewPool(cfg.Workers), sim, specs, func(_ int, cohort []fleet.MoteResult) error {
		for i := range cohort {
			m := &cohort[i]
			instr += m.Stats.Instructions
			cycles += m.Stats.Cycles
			got.Link.Add(m.Link)
			got.ARQ.Add(m.ARQ)
			got.EventsLogged += m.EventsLogged
			got.Uplink.PacketsDelivered += m.Uplink.PacketsDelivered
			got.Uplink.InvocationsDiscarded += m.Uplink.InvocationsDiscarded
		}
		return nil
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	if got.Link != want.Link || got.ARQ != want.ARQ || got.EventsLogged != want.EventsLogged ||
		got.Uplink.PacketsDelivered != want.Uplink.PacketsDelivered ||
		got.Uplink.InvocationsDiscarded != want.Uplink.InvocationsDiscarded {
		return fmt.Errorf("fleet simulation replica disagrees with RunFleet: link %+v arq %+v events %d, RunFleet link %+v arq %+v events %d",
			got.Link, got.ARQ, got.EventsLogged, want.Link, want.ARQ, want.EventsLogged)
	}
	s := tr.spans[sp]
	pv["mote.run_ms"] = ms(s.Wall)
	pv["mote.instructions"] = float64(instr)
	pv["mote.cycles"] = float64(cycles)
	pv["mote.sim_minstr_per_s"] = float64(instr) / s.Wall.Seconds() / 1e6
	pv["mote.alloc_kb"] = float64(s.Bytes) / 1024
	return nil
}
