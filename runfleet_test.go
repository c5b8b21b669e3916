package codetomo

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"codetomo/internal/fault"
	"codetomo/internal/fleet"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
)

func fleetConfig() FleetConfig {
	return FleetConfig{
		Config:      Config{Seed: 5},
		Motes:       3,
		Workloads:   []string{"gaussian", "uniform", "bursty"},
		DropProb:    0.2,
		DupProb:     0.05,
		ReorderProb: 0.05,
		Batches:     6,
	}
}

// robustEM is the outlier-trimmed robust estimator with its EM kernel at
// cfg's timer tick and every other knob at its default.
func robustEM(cfg FleetConfig) tomography.Estimator {
	tick := cfg.settings().WithDefaults().TickDiv
	return tomography.Robust{Config: tomography.RobustConfig{EM: tomography.EMConfig{KernelHalfWidth: float64(tick)}}}
}

func TestRunFleetEndToEnd(t *testing.T) {
	src := sourceFor(t, "sense", 800)
	res, err := RunFleet(src, fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) == 0 {
		t.Fatal("no procedures estimated")
	}
	var handler *ProcEstimate
	for i := range res.Estimates {
		if res.Estimates[i].Proc == "sample" {
			handler = &res.Estimates[i]
		}
	}
	if handler == nil || handler.Fallback {
		t.Fatalf("handler missing or fell back: %+v", handler)
	}
	// Three motes × 800 iterations, minus loss: the fleet must deliver
	// more samples than any single mote logged.
	if handler.SampleCount <= 800 {
		t.Fatalf("fleet sample count = %d, want > 800", handler.SampleCount)
	}
	if handler.MAE > 0.15 {
		t.Fatalf("handler MAE = %v under 20%% loss, want < 0.15", handler.MAE)
	}
	st := res.Fleet
	if st.Motes != 3 || st.Link.Sent == 0 || st.Link.Dropped == 0 {
		t.Fatalf("uplink accounting implausible: %+v", st.Link)
	}
	if st.Uplink.InvocationsRecovered == 0 || st.Uplink.InvocationsDiscarded == 0 {
		t.Fatalf("loss accounting implausible: %+v", st.Uplink)
	}
	if st.EstimatedProcs == 0 || st.Rounds == 0 || st.Iterations == 0 {
		t.Fatalf("estimation accounting implausible: %+v", st)
	}
	if st.SamplesPerProc["sample"] != handler.SampleCount {
		t.Fatalf("SamplesPerProc = %d, estimate saw %d", st.SamplesPerProc["sample"], handler.SampleCount)
	}
	// The optimization tail still holds under fleet estimation.
	if res.After.Mispredicts > res.Before.Mispredicts {
		t.Fatalf("mispredicts grew: %d -> %d", res.Before.Mispredicts, res.After.Mispredicts)
	}
	// Stats render without panicking and carry the headline counters.
	out := ""
	for _, tab := range st.Tables() {
		out += tab.Render()
	}
	for _, want := range []string{"packets sent", "invocations recovered", "estimation rounds", "sample"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered fleet stats missing %q:\n%s", want, out)
		}
	}
}

// The acceptance bar: a seeded fleet run reproduces bit-for-bit — same
// estimates, same loss/recovery counters — across invocations, worker
// counts, and GOMAXPROCS settings.
func TestRunFleetDeterministic(t *testing.T) {
	src := sourceFor(t, "sense", 500)

	type snapshot struct {
		estimates []ProcEstimate
		link      fleet.LinkStats
		uplink    interface{}
		before    RunStats
		output    []uint16
	}
	take := func(workers, maxprocs int) snapshot {
		prev := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(prev)
		cfg := fleetConfig()
		cfg.Workers = workers
		res, err := RunFleet(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{
			estimates: res.Estimates,
			link:      res.Fleet.Link,
			uplink:    res.Fleet.Uplink,
			before:    res.Before,
			output:    res.Output,
		}
	}

	ref := take(1, 1)
	for _, tc := range []struct{ workers, maxprocs int }{{1, 1}, {4, 1}, {4, 4}, {3, 2}} {
		got := take(tc.workers, tc.maxprocs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d GOMAXPROCS=%d diverged from reference:\n%+v\nvs\n%+v",
				tc.workers, tc.maxprocs, got, ref)
		}
	}
}

// TestFleetUploadsContract pins FleetUploads, the in-process feed for a
// base station: its results do not depend on Workers, its kept
// frames are the multiset FleetFrames streams, merging its ground truth
// sums every mote's counts field by field, and it refuses fleets whose
// mote IDs would wrap on the wire.
func TestFleetUploadsContract(t *testing.T) {
	src := sourceFor(t, "sense", 200)
	cfg := fleetConfig()
	cfg.Motes = 6
	cfg.CorruptProb = 0.05
	cfg.ARQRetries = 2

	uploads := func(workers int) []fleet.MoteResult {
		c := cfg
		c.Workers = workers
		ups, err := FleetUploads(src, c)
		if err != nil {
			t.Fatal(err)
		}
		return ups
	}
	ref := uploads(1)
	if len(ref) != cfg.Motes {
		t.Fatalf("%d uploads for %d motes", len(ref), cfg.Motes)
	}
	for _, workers := range []int{2, 4} {
		if got := uploads(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: uploads diverged from workers=1", workers)
		}
	}

	var kept, streamed []string
	for _, up := range ref {
		if len(up.Frames) == 0 || len(up.BranchStats) == 0 {
			t.Fatalf("mote %d kept %d frames and %d branch stats", up.Spec.ID, len(up.Frames), len(up.BranchStats))
		}
		for _, f := range up.Frames {
			kept = append(kept, string(f))
		}
	}
	err := FleetFrames(src, cfg, func(frames [][]byte) error {
		for _, f := range frames {
			streamed = append(streamed, string(f))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(kept)
	slices.Sort(streamed)
	if !slices.Equal(kept, streamed) {
		t.Fatalf("FleetUploads kept %d frames, FleetFrames streamed a different %d", len(kept), len(streamed))
	}

	sum := make(map[int32]mote.BranchStat)
	for _, up := range ref {
		for pc, st := range up.BranchStats {
			s := sum[pc]
			s.Taken += st.Taken
			s.NotTaken += st.NotTaken
			s.Mispred += st.Mispred
			sum[pc] = s
		}
	}
	merged := fleet.MergeBranchStats(ref)
	if len(merged) != len(sum) {
		t.Fatalf("merged %d branches, motes hold %d", len(merged), len(sum))
	}
	for pc, st := range merged {
		if *st != sum[pc] {
			t.Fatalf("pc %d: merged %+v, per-mote sum %+v", pc, *st, sum[pc])
		}
	}

	wide := cfg
	wide.Motes = 65536
	if _, err := FleetUploads(src, wide); err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("65536 motes: err = %v, want the 16-bit wire-ID error", err)
	}
}

// MAE under 20% packet loss must stay within 2× of the lossless MAE — the
// loss-tolerant reassembly only removes samples, it must not bias them.
func TestRunFleetLossyMAEWithinBound(t *testing.T) {
	src := sourceFor(t, "sense", 1200)
	base := fleetConfig()
	base.DropProb, base.DupProb, base.ReorderProb = 0, 0, 0
	lossy := fleetConfig()
	lossy.DropProb = 0.2

	mae := func(cfg FleetConfig) float64 {
		res, err := RunFleet(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range res.Estimates {
			if pe.Proc == "sample" {
				if pe.Fallback {
					t.Fatal("handler fell back")
				}
				return pe.MAE
			}
		}
		t.Fatal("handler estimate missing")
		return 0
	}
	lossless, lossyMAE := mae(base), mae(lossy)
	bound := 2 * lossless
	if bound < 0.02 {
		// Floor the bound: a near-zero lossless MAE would demand more of
		// 20% loss than of the estimator itself.
		bound = 0.02
	}
	if lossyMAE > bound {
		t.Fatalf("lossy MAE %v exceeds bound %v (lossless %v)", lossyMAE, bound, lossless)
	}
}

// Satellite 4 of the fault-injection PR: the determinism contract must
// survive the whole fault stack. With crashes, brownouts, sensor faults,
// corruption, ARQ, and robust estimation all enabled, a seeded run still
// reproduces bit-for-bit across worker counts and GOMAXPROCS.
func TestRunFleetDeterministicUnderFaults(t *testing.T) {
	src := sourceFor(t, "sense", 500)

	faultyConfig := func() FleetConfig {
		cfg := fleetConfig()
		cfg.CorruptProb = 0.05
		cfg.ARQRetries = 3
		cfg.Estimator = robustEM(cfg)
		cfg.Faults = fault.Config{
			CrashMTBFCycles: 400_000,
			BrownoutProb:    0.3,
			SensorStuckProb: 0.01,
			SensorNoiseProb: 0.05,
		}
		return cfg
	}

	type snapshot struct {
		estimates []ProcEstimate
		link      fleet.LinkStats
		arq       fleet.ARQStats
		resets    uint64
		perMote   []fleet.MoteUplink
		uplink    interface{}
		trimmed   int
		lowConf   int
		before    RunStats
		output    []uint16
	}
	take := func(workers, maxprocs int) snapshot {
		prev := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(prev)
		cfg := faultyConfig()
		cfg.Workers = workers
		res, err := RunFleet(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{
			estimates: res.Estimates,
			link:      res.Fleet.Link,
			arq:       res.Fleet.ARQ,
			resets:    res.Fleet.Resets,
			perMote:   res.Fleet.PerMote,
			uplink:    res.Fleet.Uplink,
			trimmed:   res.Fleet.TrimmedSamples,
			lowConf:   res.Fleet.LowConfidenceProcs,
			before:    res.Before,
			output:    res.Output,
		}
	}

	ref := take(1, 1)
	// The run must actually exercise the fault machinery, or this test
	// proves nothing.
	if ref.resets == 0 {
		t.Fatal("no watchdog resets fired; raise the crash rate")
	}
	if ref.link.Corrupted == 0 || ref.arq.Retransmissions == 0 {
		t.Fatalf("channel faults idle: link %+v, arq %+v", ref.link, ref.arq)
	}
	for _, tc := range []struct{ workers, maxprocs int }{{1, 1}, {4, 1}, {4, 4}} {
		got := take(tc.workers, tc.maxprocs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d GOMAXPROCS=%d diverged under faults:\n%+v\nvs\n%+v",
				tc.workers, tc.maxprocs, got, ref)
		}
	}
}

// Graceful degradation, end to end: at moderate fault rates the recovery
// stack (CRC rejection + ARQ + robust trimming + confidence-gated
// placement) keeps estimation error within 2× the fault-free baseline, and
// the placement never regresses below the unoptimized binary.
func TestRunFleetGracefulDegradation(t *testing.T) {
	src := sourceFor(t, "sense", 800)

	clean := fleetConfig()
	clean.DropProb, clean.DupProb, clean.ReorderProb = 0, 0, 0
	faulty := fleetConfig()
	faulty.CorruptProb = 0.1
	faulty.ARQRetries = 3
	faulty.Estimator = robustEM(faulty)
	faulty.Faults = fault.Config{CrashMTBFCycles: 600_000, BrownoutProb: 0.2}

	run := func(cfg FleetConfig) (float64, *FleetResult) {
		res, err := RunFleet(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range res.Estimates {
			if pe.Proc == "sample" && !pe.Fallback && !pe.LowConfidence {
				return pe.MAE, res
			}
		}
		t.Fatal("handler estimate missing, fell back, or low-confidence")
		return 0, nil
	}
	cleanMAE, _ := run(clean)
	faultyMAE, res := run(faulty)

	bound := 2 * cleanMAE
	if bound < 0.03 {
		bound = 0.03
	}
	if faultyMAE > bound {
		t.Fatalf("faulty MAE %v exceeds bound %v (clean %v)", faultyMAE, bound, cleanMAE)
	}
	if res.Fleet.Resets == 0 || res.Fleet.Link.Corrupted == 0 {
		t.Fatalf("fault campaign idle: resets=%d link=%+v", res.Fleet.Resets, res.Fleet.Link)
	}
	// Confidence-gated placement must never make the binary slower than
	// leaving it alone.
	if res.After.Cycles > res.Before.Cycles {
		t.Fatalf("optimized binary slower under faults: %d -> %d cycles", res.Before.Cycles, res.After.Cycles)
	}
}

func TestRunRejectsStatefulPredictor(t *testing.T) {
	src := sourceFor(t, "sense", 100)
	_, err := Run(src, Config{Predictor: mote.NewBimodal(6)})
	if err == nil || !strings.Contains(err.Error(), "stateful") {
		t.Fatalf("stateful predictor: Run error = %v, want a stateful-predictor rejection", err)
	}
}

func TestRunFleetRejectsStatefulPredictor(t *testing.T) {
	src := sourceFor(t, "sense", 100)
	cfg := fleetConfig()
	cfg.Predictor = mote.NewBimodal(6)
	if _, err := RunFleet(src, cfg); err == nil {
		t.Fatal("stateful predictor accepted")
	}
}

func TestFleetConfigValidate(t *testing.T) {
	bad := []FleetConfig{
		{Motes: -1},
		{Motes: MaxFleetMotes + 1},
		{Workers: -2},
		{EventsPerPacket: -1},
		{EventsPerPacket: 1000},
		{DropProb: 1.5},
		{DupProb: -0.1},
		{ReorderProb: 7},
		{Batches: -3},
		{Config: Config{TickDiv: -8}},
		{Config: Config{MinCoverage: 1.5}},
		{CorruptProb: 2},
		{ARQRetries: -1},
		// ARQ has nothing to NACK when the receiver skips the CRC check.
		{ARQRetries: 2, SkipCRC: true},
		{Faults: fault.Config{BrownoutProb: 2}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := fleetConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// RunFleet surfaces validation errors before doing any work.
	if _, err := RunFleet("func main() {}", FleetConfig{Motes: -1}); err == nil {
		t.Error("RunFleet accepted invalid config")
	}
}

// intermittentConfig is an energy-harvesting deployment whose mean
// harvest (0.8 µJ/kcycle) is well below the CPU draw (~1.35 µJ/kcycle),
// forcing a duty cycle on a small capacitor: every mote dies and resumes
// many times per campaign.
func intermittentConfig() FleetConfig {
	cfg := fleetConfig()
	cfg.DropProb, cfg.DupProb, cfg.ReorderProb = 0, 0, 0
	cfg.Energy = fault.EnergyConfig{
		HarvestUJPerKCycle: 0.8,
		HarvestNoiseSigma:  0.4,
		CapacityUJ:         60,
		BrownoutFloorUJ:    2,
		RestartChargeUJ:    40,
	}
	// The low-charge trigger checkpoints just before the brownout — often
	// mid-invocation — so the torn execution's enter is durable and the
	// base station sees it as a lost partial rather than losing it with
	// the volatile tail.
	cfg.Checkpoint = mote.CheckpointPolicy{EveryKInvocations: 4, OnLowChargeFrac: 0.25}
	return cfg
}

// TestRunFleetIntermittent is the tentpole end-to-end: motes on harvested
// power die mid-procedure, checkpoints resume them, the base station
// counts the torn executions as lost partials, and the pipeline reports
// completion rate, hazard, and completed-invocations-per-harvested-joule.
func TestRunFleetIntermittent(t *testing.T) {
	src := sourceFor(t, "sense", 400)
	res, err := RunFleet(src, intermittentConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Fleet
	if st.PowerFailures == 0 || st.Checkpoints == 0 || st.Restores == 0 {
		t.Fatalf("no intermittence: %+v", st)
	}
	if st.HarvestedUJ <= 0 || st.EnergyUJ <= 0 {
		t.Fatalf("energy accounting missing: harvested %v consumed %v", st.HarvestedUJ, st.EnergyUJ)
	}
	if st.Uplink.LostPartials == 0 {
		t.Fatal("outages mid-procedure must surface as lost partials")
	}
	// The fleet sum carries the per-procedure breakdown too.
	byProc := 0
	for _, n := range st.Uplink.LostPartialsByProc {
		byProc += n
	}
	if byProc != st.Uplink.LostPartials {
		t.Fatalf("LostPartialsByProc sums to %d, LostPartials = %d", byProc, st.Uplink.LostPartials)
	}
	for _, m := range st.PerMote {
		if m.EnergyUJ <= 0 {
			t.Fatalf("mote %d has no energy accounting", m.ID)
		}
	}
	it := res.Intermittence
	if it == nil {
		t.Fatal("intermittence summary missing on an energy-enabled fleet")
	}
	if it.LostPartials != st.Uplink.LostPartials || it.Completed != st.Uplink.InvocationsRecovered {
		t.Fatalf("intermittence counts diverge from uplink: %+v vs %+v", it, st.Uplink)
	}
	if it.CompletionRate <= 0 || it.CompletionRate >= 1 {
		t.Fatalf("completion rate = %v, want in (0,1)", it.CompletionRate)
	}
	if it.HazardPerCycle <= 0 {
		t.Fatalf("hazard = %v, want > 0", it.HazardPerCycle)
	}
	if it.CompletedPerJoule <= 0 || it.PredictedCompletedPerJoule <= 0 {
		t.Fatalf("per-joule figures missing: %+v", it)
	}
	// The estimate must still work: lost partials reduce, not destroy,
	// accuracy.
	for _, pe := range res.Estimates {
		if pe.Proc == "sample" {
			if pe.Fallback {
				t.Fatal("handler fell back under intermittent power")
			}
			if pe.LostPartials == 0 {
				t.Fatal("handler saw no lost partials")
			}
			if pe.MAE > 0.2 {
				t.Fatalf("handler MAE = %v under intermittent power", pe.MAE)
			}
		}
	}
}

// TestRunFleetDeterministicUnderPower: the determinism contract survives
// the whole intermittent stack — harvest noise, brownouts, checkpoints,
// restores, survival-bias correction — across worker counts and
// GOMAXPROCS.
func TestRunFleetDeterministicUnderPower(t *testing.T) {
	src := sourceFor(t, "sense", 300)

	type snapshot struct {
		estimates     []ProcEstimate
		uplink        interface{}
		perMote       []fleet.MoteUplink
		intermittence IntermittenceStats
		output        []uint16
	}
	take := func(workers, maxprocs int) snapshot {
		prev := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(prev)
		cfg := intermittentConfig()
		cfg.Workers = workers
		cfg.Estimator = robustEM(cfg)
		res, err := RunFleet(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{
			estimates:     res.Estimates,
			uplink:        res.Fleet.Uplink,
			perMote:       res.Fleet.PerMote,
			intermittence: *res.Intermittence,
			output:        res.Output,
		}
	}

	ref := take(1, 1)
	for _, tc := range []struct{ workers, maxprocs int }{{4, 1}, {4, 4}} {
		got := take(tc.workers, tc.maxprocs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d GOMAXPROCS=%d diverged from reference:\n%+v\nvs\n%+v",
				tc.workers, tc.maxprocs, got, ref)
		}
	}
}

// infeasibleEstimator is an estimator that diverged: NaN on every free
// edge, so the fit's expected duration lies inside no static envelope.
type infeasibleEstimator struct{}

func (infeasibleEstimator) Name() string { return "infeasible" }

func (infeasibleEstimator) Fit(m *tomography.Model, _ tomography.SampleCounts, _ markov.EdgeProbs) (tomography.Fit, error) {
	probs := m.InitialProbs()
	for _, e := range m.BranchEdgeList() {
		probs[e] = math.NaN()
	}
	return tomography.Fit{Probs: probs, Confident: true}, nil
}

// RunFleet honours StaticResolve exactly as Run does: the same branches
// are pinned in the models, and a fit outside the static envelope is
// rejected and leaves the layout alone.
func TestRunFleetStaticResolveMatchesRun(t *testing.T) {
	base := Config{Seed: 9, StaticResolve: true}
	fleetCfg := func(c Config) FleetConfig { return FleetConfig{Config: c, Motes: 2, Batches: 2} }

	run, err := Run(staticResolveSource, base)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := RunFleet(staticResolveSource, fleetCfg(base))
	if err != nil {
		t.Fatal(err)
	}
	resolved := make(map[string]int)
	for _, pe := range run.Estimates {
		resolved[pe.Proc] = pe.ResolvedBranches
	}
	if resolved["handler"] != 1 {
		t.Fatalf("Run resolved %d handler branches, want 1", resolved["handler"])
	}
	for _, pe := range fl.Estimates {
		if pe.ResolvedBranches != resolved[pe.Proc] {
			t.Errorf("%s: RunFleet resolved %d branches, Run %d", pe.Proc, pe.ResolvedBranches, resolved[pe.Proc])
		}
		if pe.Proc == "handler" && (pe.Fallback || pe.EnvelopeViolation) {
			t.Errorf("healthy fleet fit rejected: %+v", pe)
		}
	}

	bad := base
	bad.Estimator = infeasibleEstimator{}
	runBad, err := Run(staticResolveSource, bad)
	if err != nil {
		t.Fatal(err)
	}
	flBad, err := RunFleet(staticResolveSource, fleetCfg(bad))
	if err != nil {
		t.Fatal(err)
	}
	for name, ests := range map[string][]ProcEstimate{"Run": runBad.Estimates, "RunFleet": flBad.Estimates} {
		for _, pe := range ests {
			if pe.Proc == "handler" && (!pe.EnvelopeViolation || !pe.Fallback || len(pe.Branches) != 0) {
				t.Errorf("%s: infeasible handler fit not rejected: %+v", name, pe)
			}
		}
	}
	if flBad.After != flBad.Before {
		t.Errorf("rejected fit moved the fleet layout: before %+v after %+v", flBad.Before, flBad.After)
	}
}
