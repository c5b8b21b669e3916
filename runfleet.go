package codetomo

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"codetomo/internal/compile"
	"codetomo/internal/fault"
	"codetomo/internal/fleet"
	"codetomo/internal/isa"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// MaxFleetMotes bounds the deployment size RunFleet accepts. Wire-format
// mote IDs are 16-bit, so above 65535 IDs wrap; that is harmless
// in-process (reassembly is per-mote and never mixes motes), but paths
// that put IDs on the wire (FleetUploads, FleetFrames) keep the 65535
// cap.
const MaxFleetMotes = 1 << 20

// FleetConfig tunes a fleet pipeline run: the base pipeline knobs plus the
// deployment shape, the radio channel, and the streaming-estimation
// schedule. The zero value is usable — four motes on the base workload
// over a perfect link.
type FleetConfig struct {
	Config

	// Motes is the deployment size (default 4, max MaxFleetMotes).
	Motes int
	// Workloads assigns input regimes to motes round-robin; empty means
	// every mote observes Config.Workload (through its own seed).
	Workloads []string
	// Workers bounds concurrent mote simulations (default 4). It affects
	// wall time only, never results.
	Workers int
	// Cohort is the streaming scheduler's batch size — motes per pooled
	// worker task (default fleet.DefaultCohortSize). Like Workers it moves
	// wall time and peak memory only, never results.
	Cohort int
	// EventsPerPacket is the radio batching granularity (default 32, max
	// trace.MaxPacketEvents).
	EventsPerPacket int
	// DropProb, DupProb, and ReorderProb describe the lossy uplink; all
	// default to 0 (perfect channel). CorruptProb adds per-transmission
	// single-bit flips on top.
	DropProb, DupProb, ReorderProb, CorruptProb float64
	// SkipCRC makes the base station accept uplink frames without checking
	// their CRC-16, so corrupted frames decode silently wrong.
	SkipCRC bool
	// ARQRetries bounds selective-repeat retransmission rounds per uplink
	// (0 = ARQ off). Requires CRC checking. ARQBackoffTicks is
	// the base of the deterministic exponential backoff charged between
	// rounds (0 = default 64).
	ARQRetries      int
	ARQBackoffTicks uint64
	// Faults injects deterministic mote faults — watchdog crash/reboots,
	// brownouts, sensor stuck-at and glitch faults — into every mote. The
	// zero value is a healthy deployment. Faults.Seed derives from Seed
	// when left 0.
	Faults fault.Config
	// Energy powers every mote from an energy-harvesting capacitor
	// (fault.EnergyConfig): power cuts wherever the program's own draw
	// empties the charge, completed invocations become a survival-biased
	// sample, and the estimator corrects the bias from the lost-partial
	// counts. The zero value is a mains-powered deployment. Energy.Seed
	// derives from Seed when left 0.
	Energy fault.EnergyConfig
	// Checkpoint is the checkpoint/restore policy motes run under Energy
	// (zero = cold boot on every outage; ignored on mains power).
	Checkpoint mote.CheckpointPolicy
	// Batches is the number of uplink rounds each mote's stream is split
	// into for incremental re-estimation (default 8).
	Batches int
	// ConvergeTol and ConvergePatience control the streaming early stop:
	// estimation halts once no branch probability moves more than
	// ConvergeTol for ConvergePatience consecutive rounds (defaults 1e-3
	// and 2).
	ConvergeTol      float64
	ConvergePatience int
}

// Validate rejects configurations RunFleet cannot honor, with the same
// zero-selects-default convention as Config.Validate.
func (c FleetConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Motes < 0 || c.Motes > MaxFleetMotes {
		return fmt.Errorf("codetomo: Motes = %d; must be in [1, %d] (zero selects the default of 4)", c.Motes, MaxFleetMotes)
	}
	if c.Workers < 0 {
		return fmt.Errorf("codetomo: Workers = %d; must be positive (zero selects the default of 4)", c.Workers)
	}
	if c.Cohort < 0 {
		return fmt.Errorf("codetomo: Cohort = %d; must be positive (zero selects the default of %d)", c.Cohort, fleet.DefaultCohortSize)
	}
	if c.EventsPerPacket < 0 || c.EventsPerPacket > trace.MaxPacketEvents {
		return fmt.Errorf("codetomo: EventsPerPacket = %d; must be in [1, %d] (zero selects the default of %d)",
			c.EventsPerPacket, trace.MaxPacketEvents, trace.DefaultEventsPerPacket)
	}
	if err := c.link().Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.Checkpoint.EveryKInvocations < 0 {
		return fmt.Errorf("codetomo: Checkpoint.EveryKInvocations = %d; must be >= 0", c.Checkpoint.EveryKInvocations)
	}
	if c.Checkpoint.OnLowChargeFrac < 0 || c.Checkpoint.OnLowChargeFrac >= 1 {
		return fmt.Errorf("codetomo: Checkpoint.OnLowChargeFrac = %v; must be a fraction in [0, 1)", c.Checkpoint.OnLowChargeFrac)
	}
	if c.Batches < 0 {
		return fmt.Errorf("codetomo: Batches = %d; must be positive (zero selects the default of 8)", c.Batches)
	}
	if err := c.settings().Validate(); err != nil {
		return fmt.Errorf("codetomo: %w", err)
	}
	return nil
}

// settings adds the streaming early stop to the shared settings.
func (c FleetConfig) settings() pipeline.Settings {
	s := c.Config.settings()
	s.ConvergeTol, s.ConvergePatience = c.ConvergeTol, c.ConvergePatience
	return s
}

func (c FleetConfig) withDefaults() FleetConfig {
	c.Config = c.Config.withDefaults()
	if c.Faults.Enabled() && c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed + fleetFaultSeed
	}
	if c.Energy.Enabled() && c.Energy.Seed == 0 {
		c.Energy.Seed = c.Seed + fleetEnergySeed
	}
	if c.Motes == 0 {
		c.Motes = 4
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{c.Workload}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.EventsPerPacket == 0 {
		c.EventsPerPacket = trace.DefaultEventsPerPacket
	}
	if c.Batches == 0 {
		c.Batches = 8
	}
	return c
}

// FleetResult is the outcome of one fleet pipeline run.
type FleetResult struct {
	// Result holds the per-procedure estimates over the merged fleet
	// samples, and the uninstrumented runs under the original and the
	// fleet-estimated layout (single-mote, base workload — the same
	// measurement Run performs, so results are comparable).
	Result
	// Fleet is the deployment's observability record.
	Fleet fleet.Stats
	// Intermittence summarizes execution under harvested power; nil on a
	// mains-powered fleet.
	Intermittence *IntermittenceStats
}

// IntermittenceStats is the fleet-level view of execution under harvested
// power: how often invocations died mid-procedure, the power-failure
// hazard that implies, and the deployment's energy efficiency under the
// measured and the optimized layout.
type IntermittenceStats struct {
	// Completed counts invocations whose durations reached the estimator;
	// LostPartials counts invocations power-truncated mid-procedure.
	Completed, LostPartials int
	// CompletionRate is Completed / (Completed + LostPartials).
	CompletionRate float64
	// HazardPerCycle is the fleet-level power-failure hazard λ̂ implied by
	// the completion rate at the mean completed duration:
	// λ̂ = −ln(rate)/mean.
	HazardPerCycle float64
	// MeanDurationCycles is the mean completed invocation duration the
	// hazard was solved at.
	MeanDurationCycles float64
	// HarvestedUJ is the fleet's total banked harvest.
	HarvestedUJ float64
	// CompletedPerJoule is Completed divided by the harvested energy in
	// joules — the paper-level figure of merit for a layout under
	// intermittent power. PredictedCompletedPerJoule extrapolates it to
	// the optimized layout: a speedup s shortens invocations to T/s, so
	// each costs s× less energy and survives e^{λT(1−1/s)}× more often.
	CompletedPerJoule          float64
	PredictedCompletedPerJoule float64
}

// Per-mote and per-subsystem seed derivations. Distinct odd constants keep
// the derived streams disjoint; everything flows from cfg.Seed so a fleet
// run is one number away from reproducible.
const (
	fleetMoteSeedStride = 104729 // per-mote sensor/entropy seeds
	fleetOffsetSeed     = 7253   // clock skew RNG
	fleetLinkSeed       = 104659 // radio channel RNG base
	fleetFaultSeed      = 94907  // fault-injection RNG base
	fleetEnergySeed     = 86243  // harvest-process RNG base
)

// maxPerMoteRows caps the per-mote uplink table in FleetResult.Fleet: a
// human-readable diagnostic worth keeping for a testbed, pure ballast for
// a million-mote sweep. Beyond this the table is suppressed (Tables()
// renders nothing for an empty PerMote) and only fleet totals are kept.
const maxPerMoteRows = 4096

// fleetSpecs derives the deployment's mote specs from the config: workload
// assignment round-robin, per-mote seeds, and random (but seeded) clock
// offsets of up to ~1M ticks.
func fleetSpecs(cfg FleetConfig) []fleet.MoteSpec {
	offRNG := stats.NewRNG(cfg.Seed + fleetOffsetSeed)
	specs := make([]fleet.MoteSpec, cfg.Motes)
	for i := range specs {
		specs[i] = fleet.MoteSpec{
			// Wire IDs are 16-bit; above 65535 they wrap, which in-process
			// paths tolerate (see MaxFleetMotes) and wire paths reject.
			ID:               uint16(i),
			Workload:         cfg.Workloads[i%len(cfg.Workloads)],
			Seed:             cfg.Seed + int64(i+1)*fleetMoteSeedStride,
			ClockOffsetTicks: uint64(offRNG.Intn(1 << 20)),
		}
	}
	return specs
}

// simConfig assembles the deployment simulation config shared by RunFleet,
// FleetUploads, and FleetFrames: the instrumented binary, the mote machine
// shape, and the radio channel, all derived from one FleetConfig (defaults
// filled). The profiling motes run on uniform flash.
func simConfig(cfg FleetConfig, prog []isa.Instr) fleet.SimConfig {
	return fleet.SimConfig{
		Prog:       prog,
		Mote:       pipeline.Mote{TickDiv: cfg.TickDiv, Predictor: cfg.Predictor}.Config(),
		MaxCycles:  cfg.MaxCycles,
		Workers:    cfg.Workers,
		Cohort:     cfg.Cohort,
		Link:       cfg.link(),
		Faults:     cfg.Faults,
		Energy:     cfg.Energy,
		Checkpoint: cfg.Checkpoint,
	}
}

// link is the deployment's radio channel.
func (c FleetConfig) link() fleet.LinkConfig {
	return fleet.LinkConfig{
		DropProb:        c.DropProb,
		DupProb:         c.DupProb,
		ReorderProb:     c.ReorderProb,
		CorruptProb:     c.CorruptProb,
		EventsPerPacket: c.EventsPerPacket,
		SkipCRC:         c.SkipCRC,
		ARQ:             fleet.ARQConfig{MaxRetries: c.ARQRetries, BackoffBaseTicks: c.ARQBackoffTicks},
		Seed:            c.Seed + fleetLinkSeed,
	}
}

// profileBuild is the deployment's one instrumented build: every mote runs
// this binary, and the estimation models are enumerated from it.
func (c FleetConfig) profileBuild(source string) (*compile.Output, error) {
	return compile.Build(source, compile.Options{
		Instrument:   compile.ModeTimestamps,
		FuseCompares: c.FuseCompares,
		RotateLoops:  c.RotateLoops,
	})
}

// wireDeployment validates and defaults a deployment whose mote IDs go on
// the wire — 16-bit, so it caps at 65535 motes — and makes its
// instrumented build.
func wireDeployment(source string, cfg FleetConfig) (FleetConfig, *compile.Output, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, nil, err
	}
	if cfg.Motes > 65535 {
		return cfg, nil, fmt.Errorf("codetomo: Motes = %d; wire-format mote IDs are 16-bit, so uploads cap at 65535 motes", cfg.Motes)
	}
	cfg = cfg.withDefaults()
	prof, err := cfg.profileBuild(source)
	return cfg, prof, err
}

// FleetUploads runs only the deployment half of RunFleet — the
// instrumented build, N motes under heterogeneous workloads and faults,
// and the lossy uplink — and returns the per-mote results in spec order
// with their uploads kept: the frames exactly as the channel delivered
// them, undecoded, and each mote's ground-truth branch stats. It is the
// feed for a long-running base station (cmd/ctstationd) ingesting over the
// wire instead of estimating in-process, and follows RunFleet's
// determinism contract: a fixed config yields bit-identical results
// regardless of Workers, Cohort and GOMAXPROCS.
func FleetUploads(source string, cfg FleetConfig) ([]fleet.MoteResult, error) {
	cfg, prof, err := wireDeployment(source, cfg)
	if err != nil {
		return nil, err
	}
	sim := simConfig(cfg, prof.Code)
	sim.KeepUpload = true
	uploads, _, err := fleet.SimulateStream(sim, fleetSpecs(cfg))
	return uploads, err
}

// FleetFrames streams the deployment's delivered uplink frames to emit,
// one call per mote, without ever materializing the fleet: motes run in
// cohorts on a bounded pool, and each cohort's frames are handed off and
// dropped before the next cohort's results are retained. It is the feed
// for pushing a large fleet to a base station over the wire
// (cmd/ctfleet -push); peak memory is O(Workers × Cohort) motes.
//
// Cohorts complete in scheduling order, not mote order, so emit sees
// motes in a nondeterministic order — safe for a base station, whose
// snapshots are a pure function of the accepted-frame multiset. The frame
// slices become the callee's; they are not recycled.
func FleetFrames(source string, cfg FleetConfig, emit func(frames [][]byte) error) error {
	cfg, prof, err := wireDeployment(source, cfg)
	if err != nil {
		return err
	}
	sim := simConfig(cfg, prof.Code)
	sim.KeepUpload = true
	pool := fleet.NewPool(cfg.Workers)
	_, err = fleet.SimulateStreamOn(pool, sim, fleetSpecs(cfg), func(first int, cohort []fleet.MoteResult) error {
		for i := range cohort {
			if err := emit(cohort[i].Frames); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// RunFleet executes the Code Tomography pipeline against a simulated
// deployment: N motes run the instrumented binary under heterogeneous
// workloads, upload their traces over a lossy radio link, and the base
// station estimates branch probabilities from the merged streams —
// incrementally, one uplink round at a time, stopping early per procedure
// once the estimate stabilizes. The placement and measurement tail is
// identical to Run's, so FleetResult.Before/After are directly comparable
// to a single-mote Result.
//
// For a fixed config, RunFleet is bit-for-bit deterministic (estimates and
// all counters except wall times) regardless of Workers and GOMAXPROCS.
func RunFleet(source string, cfg FleetConfig) (*FleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// The measurement baseline, as in Run: started now, joined on every
	// path.
	baseline := cfg.mote().Baseline(source)
	defer baseline()

	// 1. One instrumented build; every mote runs the same binary.
	prof, err := cfg.profileBuild(source)
	if err != nil {
		return nil, err
	}

	// 2. Simulate the deployment through the streaming cohort pipeline on
	// a bounded worker pool. The sink folds each cohort's results into the
	// fleet accumulators the moment they exist, so raw frames, trace
	// events, and intervals are gone before the next cohort runs: peak
	// memory is O(Workers × Cohort) motes of transient state plus the
	// per-procedure duration samples the estimator actually needs.
	sim := simConfig(cfg, prof.Code)
	specs := fleetSpecs(cfg)
	fst := fleet.Stats{Motes: cfg.Motes, SamplesPerProc: make(map[string]int)}

	// Accumulator slots. Integer counters fold directly in the sink —
	// sums commute, so cohort completion order cannot show in them. Float
	// sums do not commute bit-for-bit, so per-mote energy lands in
	// index-addressed slots and is folded in mote order after the run.
	// The per-mote uplink table is an observability aid, not a result;
	// past maxPerMoteRows it is suppressed rather than held.
	perMote := make([]map[int][]float64, len(specs))
	energyUJ := make([]float64, len(specs))
	harvestUJ := make([]float64, len(specs))
	var sumGross uint64
	keepRows := len(specs) <= maxPerMoteRows
	var rows []fleet.MoteUplink
	if keepRows {
		rows = make([]fleet.MoteUplink, len(specs))
	}

	// One bounded pool serves the whole campaign: mote simulation (with
	// per-mote uplink reassembly fused into each cohort task), per-procedure
	// model construction, and streaming estimation all share cfg.Workers
	// slots. Simulation runs in the background while the base station
	// builds estimation models — path enumeration is a pure function of
	// the binary, so the estimation tier overlaps the fleet instead of
	// serializing after it. Every task writes only its own slot, so
	// results stay bit-identical across Workers, Cohort, and GOMAXPROCS.
	pool := fleet.NewPool(cfg.Workers)
	t0 := time.Now()
	var (
		oracleDense []mote.BranchStat
		simErr      error
		simDone     = make(chan struct{})
	)
	go func() {
		defer close(simDone)
		oracleDense, simErr = fleet.SimulateStreamOn(pool, sim, specs, func(first int, cohort []fleet.MoteResult) error {
			for j := range cohort {
				up := &cohort[j]
				i := first + j
				fst.Link.Add(up.Link)
				fst.ARQ.Add(up.ARQ)
				fst.Uplink.Add(up.Uplink)
				fst.Resets += up.Stats.Resets
				fst.EventsLogged += up.EventsLogged
				fst.PowerFailures += up.Stats.PowerFailures
				fst.Checkpoints += up.Stats.Checkpoints
				fst.Restores += up.Stats.Restores
				fst.LostVolatileEvents += up.Stats.LostVolatileEvents
				sumGross += up.GrossTicks
				energyUJ[i] = fleet.MoteEnergyUJ(up.Stats)
				harvestUJ[i] = up.Stats.HarvestedUJ
				perMote[i] = up.Durations
				if keepRows {
					rows[i] = fleet.MoteUplink{
						ID:              up.Spec.ID,
						Resets:          up.Stats.Resets,
						Sent:            up.Link.Sent,
						Delivered:       up.Uplink.PacketsDelivered,
						Corrupted:       up.Uplink.PacketsCorrupted,
						Retransmissions: up.ARQ.Retransmissions,
						Recovered:       up.ARQ.Recovered,
						EnergyUJ:        energyUJ[i],
						PowerFailures:   up.Stats.PowerFailures,
						Restores:        up.Stats.Restores,
					}
				}
			}
			return nil
		})
	}()

	// Models for every branchy procedure, built concurrently with the
	// simulation. Construction errors are deferred: they only matter for
	// procedures that pass the sample-count gate.
	models := buildModels(pool, prof, cfg.settings())
	<-simDone
	if simErr != nil {
		return nil, simErr
	}
	fst.SimWall = time.Since(t0)

	// 3. Ordered float folds (mote order — deterministic) and batching of
	// the per-procedure samples into uplink rounds. Everything else was
	// already merged in the sink, cohort by cohort.
	t1 := time.Now()
	for i := range specs {
		fst.EnergyUJ += energyUJ[i]
		fst.HarvestedUJ += harvestUJ[i]
	}
	if keepRows {
		fst.PerMote = rows
	}
	sumGrossTicks := float64(sumGross)
	rounds := fleet.BatchStreams(perMote, cfg.Batches)
	fst.UplinkWall = time.Since(t1)

	// 4. Gate, stream-estimate, correct, and check every procedure on the
	// same pool (deterministic merge order).
	t2 := time.Now()
	procs, streams, probs, err := cfg.estimateStreams(pool, prof, models, rounds, fst.Uplink.LostPartialsByProc)
	if err != nil {
		return nil, err
	}
	fst.EstimateWall = time.Since(t2)

	res := &FleetResult{}
	oracleStats := fleet.DenseBranchStats(oracleDense)
	for i, o := range procs {
		pm := prof.Meta.ProcByName[o.Proc.Name]
		fst.SamplesPerProc[o.Proc.Name] = o.Samples
		pe := procEstimate(o, fst.Uplink.LostPartialsByProc[pm.Index], profile.OracleProbs(pm, o.Proc, oracleStats), cfg.TickDiv)
		if st := streams[i]; st != nil {
			fst.EstimatedProcs++
			fst.Rounds += st.Rounds()
			fst.Iterations += st.Iterations()
			fst.TrimmedSamples += st.Trimmed()
			if st.Converged() {
				fst.ConvergedProcs++
			}
		}
		if pe.LowConfidence {
			fst.LowConfidenceProcs++
		}
		res.Estimates = append(res.Estimates, pe)
	}

	// 5. Place and measure with Run's tail.
	res.Before, res.After, res.Output, err = cfg.measure(source, baseline, prof.CFG, probs)
	if err != nil {
		return nil, err
	}
	res.Fleet = fst
	if cfg.Energy.Enabled() {
		res.Intermittence = intermittence(fst, sumGrossTicks, cfg.TickDiv, res.Speedup())
	}
	return res, nil
}

// builtModel is one prebuilt path model, or the error building it.
type builtModel struct {
	model *tomography.Model
	err   error
}

// buildModels enumerates every branchy procedure's path model on the
// pool, indexed like prof.CFG.Procs. Path enumeration is a pure function
// of the binary, so it overlaps the fleet simulation instead of following
// it.
func buildModels(pool *fleet.Pool, prof *compile.Output, s pipeline.Settings) []builtModel {
	models := make([]builtModel, len(prof.CFG.Procs))
	var wg sync.WaitGroup
	for i, p := range prof.CFG.Procs {
		if len(p.BranchBlocks()) > 0 {
			i, name := i, p.Name
			pool.Go(&wg, func() { models[i].model, models[i].err = s.Model(prof, name) })
		}
	}
	wg.Wait()
	return models
}

// estimateStreams is RunFleet's gate-and-estimate path: admit each branchy
// procedure on all its samples, stream the admitted ones round by round
// through warm-started incremental estimation on the pool, then correct
// for truncation and check each fit. It returns the procedures in CFG
// order, each one's stream (nil unless admitted), and the placement input.
func (c FleetConfig) estimateStreams(pool *fleet.Pool, prof *compile.Output, models []builtModel, rounds map[int][][]float64, lost map[int]int) ([]pipeline.Outcome, []*pipeline.Stream, map[string]markov.EdgeProbs, error) {
	s := c.settings()
	probs := make(map[string]markov.EdgeProbs)
	var procs []pipeline.Outcome
	var streams, admitted []*pipeline.Stream
	var batches [][][]float64
	for i, p := range prof.CFG.Procs {
		pm := prof.Meta.ProcByName[p.Name]
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		all := slices.Concat(rounds[pm.Index]...)
		o := pipeline.Outcome{Proc: p, Samples: len(all)}
		var err error
		if o.Model, o.Decision, err = s.Admit(all, func() (*tomography.Model, error) { return models[i].model, models[i].err }); err != nil {
			return nil, nil, nil, fmt.Errorf("codetomo: model %s: %w", p.Name, err)
		}
		var st *pipeline.Stream
		if o.Decision == pipeline.Trusted {
			st = s.Stream(p.Name, o.Model)
			st.Lost = lost[pm.Index]
			admitted = append(admitted, st)
			batches = append(batches, rounds[pm.Index])
		}
		procs, streams = append(procs, o), append(streams, st)
	}
	if err := pipeline.ObserveOn(pool, admitted, batches); err != nil {
		return nil, nil, nil, fmt.Errorf("codetomo: %w", err)
	}
	for i, st := range streams {
		if st == nil {
			continue
		}
		o := &procs[i]
		o.Probs = pipeline.Correct(o.Model, st.Probs(), st.Lost, o.Samples)
		o.Trimmed = st.Trimmed()
		if o.Decision = s.Accept(o.Model, o.Probs, st.Confident()); o.Decision == pipeline.Trusted {
			probs[o.Proc.Name] = o.Probs
		}
	}
	return procs, streams, probs, nil
}

// intermittence derives the fleet-level intermittent-execution summary
// from the merged counters: the completion rate, the hazard it implies at
// the mean completed duration, and completed-invocations-per-harvested-
// joule under the measured layout and extrapolated to the optimized one.
func intermittence(fst fleet.Stats, sumGrossTicks float64, tickDiv int, speedup float64) *IntermittenceStats {
	it := &IntermittenceStats{
		Completed:    fst.Uplink.InvocationsRecovered,
		LostPartials: fst.Uplink.LostPartials,
		HarvestedUJ:  fst.HarvestedUJ,
	}
	total := it.Completed + it.LostPartials
	if total > 0 {
		it.CompletionRate = float64(it.Completed) / float64(total)
	}
	if it.Completed > 0 {
		it.MeanDurationCycles = sumGrossTicks * float64(tickDiv) / float64(it.Completed)
	}
	if it.CompletionRate > 0 && it.CompletionRate < 1 && it.MeanDurationCycles > 0 {
		it.HazardPerCycle = -math.Log(it.CompletionRate) / it.MeanDurationCycles
	}
	if it.HarvestedUJ > 0 {
		it.CompletedPerJoule = float64(it.Completed) / (it.HarvestedUJ * 1e-6)
		it.PredictedCompletedPerJoule = it.CompletedPerJoule
		if speedup > 0 {
			// A speedup s shortens each invocation to T/s: s× cheaper in
			// energy, and e^{λT(1−1/s)}× likelier to outrun the next
			// outage.
			it.PredictedCompletedPerJoule = it.CompletedPerJoule * speedup *
				math.Exp(it.HazardPerCycle*it.MeanDurationCycles*(1-1/speedup))
		}
	}
	return it
}
