// Command ctfleet runs the Code Tomography pipeline against a simulated
// sensor-network deployment: N motes execute the instrumented program
// under heterogeneous workloads and skewed clocks — optionally with
// injected crashes, brownouts, and sensor faults — upload their trace logs
// over a lossy, corrupting radio link with optional ARQ recovery, and the
// base station estimates branch probabilities from the merged streams —
// incrementally, with per-procedure convergence-based early stop — before
// optimizing the placement.
//
// Usage:
//
//	ctfleet [-motes 4] [-drop 0.2] [-corrupt 0.05] [-arq 3] [-crash 2000000] [-estimator robust] file.mc
//	ctfleet -harvest 0.8 -capacitor 60 -ckpt 4 file.mc    # intermittent, energy-harvesting fleet
//	ctfleet -motes 4 -push 127.0.0.1:7100 file.mc    # upload to a running ctstationd instead
package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	codetomo "codetomo"
	"codetomo/internal/cli"
	"codetomo/internal/station"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse, validate, execute, report. Exit
// codes: 0 success, 1 pipeline failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	const unbounded = math.MaxInt
	inf := math.Inf(1)
	fs := cli.FlagSet("ctfleet", "[flags] file.mc", stderr)
	motes := cli.Int(fs, "motes", 4, 1, unbounded, "deployment size")
	workloads := fs.String("workloads", "", "comma-separated input regimes assigned round-robin (default: -workload for every mote)")
	regime := fs.String("workload", "gaussian", "base input regime: gaussian, uniform, bursty, regime, diurnal")
	seed := fs.Int64("seed", 1, "master random seed (motes, clocks, channel, and faults derive from it)")
	tick := fs.Int("tick", 8, "timer prescaler in cycles")
	estName := fs.String("estimator", "em", "estimator: em, robust (outlier-trimmed EM with per-procedure confidence gating), moments, or histogram")
	drop := cli.Prob(fs, "drop", "per-packet loss probability in [0,1]")
	dup := cli.Prob(fs, "dup", "per-packet duplication probability in [0,1]")
	reorder := cli.Prob(fs, "reorder", "per-packet reorder probability in [0,1]")
	corrupt := cli.Prob(fs, "corrupt", "per-transmission bit-flip probability in [0,1]")
	arq := cli.Int(fs, "arq", 0, 0, unbounded, "max selective-repeat retransmission rounds per uplink (0 = off)")
	arqBackoff := fs.Uint64("arqbackoff", 0, "base backoff ticks between ARQ rounds (0 = default 64)")
	crash := fs.Uint64("crash", 0, "mean cycles between watchdog resets (0 = no crash injection)")
	brownout := cli.Prob(fs, "brownout", "probability in [0,1] that a reset is a long brownout")
	stuck := cli.Prob(fs, "stuck", "per-read probability in [0,1] of an ADC stuck-at episode")
	adcnoise := cli.Prob(fs, "adcnoise", "per-read probability in [0,1] of an ADC glitch")
	faultseed := fs.Int64("faultseed", 0, "fault-injection seed (0 = derive from -seed)")
	harvest := cli.Float(fs, "harvest", 0, 0, inf, "mean harvested power in uJ per 1000 cycles (0 = mains power; CPU draw is ~1.35)")
	harvestNoise := cli.Float(fs, "harvestnoise", 0, 0, inf, "sigma of the per-window lognormal harvest noise (0 = noiseless)")
	diurnal := fs.Uint64("diurnal", 0, "solar day length in cycles for the harvest envelope (0 = flat source)")
	capacitor := cli.Float(fs, "capacitor", 0, 0, inf, "storage capacitor size in uJ (0 = default 1000)")
	ckpt := cli.Int(fs, "ckpt", 0, 0, unbounded, "checkpoint every K completed invocations (0 = off)")
	ckptLow := cli.Prob(fs, "ckptlow", "checkpoint when charge falls below this fraction in [0,1) of capacity (0 = off)")
	maxcycles := fs.Uint64("maxcycles", 0, "per-mote cycle budget (0 = default)")
	perPacket := fs.Int("packet", 0, "trace events per radio packet (0 = default 32)")
	batches := fs.Int("batches", 0, "uplink rounds for incremental estimation (0 = default 8)")
	workers := fs.Int("workers", 0, "concurrent mote simulations (0 = default 4; affects wall time only)")
	cohort := cli.Int(fs, "cohort", 0, 0, unbounded, "motes per worker task in the streaming scheduler (0 = default 64; affects wall time and memory only)")
	pushAddr := fs.String("push", "", "push the fleet's frames to a ctstationd TCP ingest at this address instead of estimating locally")
	pushRetries := cli.Int(fs, "pushretries", 3, 0, unbounded, "stop-and-wait retransmissions per NAKed frame in -push mode")
	pushTimeout := fs.Duration("pushtimeout", station.DefaultAckTimeout, "per-frame ACK deadline in -push mode (a station that accepts but never answers aborts the session)")
	pgo := fs.String("pgo", "", "profile-guided passes beyond placement: comma-separated subset of inline,superblock,hotcold,pagepack, or all/none")
	pageCost := cli.Int(fs, "pagecost", 0, 0, unbounded, "flash page-crossing penalty in cycles charged by the mote (0 = uniform flash)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	stopProfile, err := cli.Profile(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "ctfleet:", err)
		return cli.ExitFailure
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "ctfleet:", err)
		}
	}()
	if fs.NArg() != 1 {
		return cli.Usage(fs, "expected exactly one source file, got %d args", fs.NArg())
	}
	if *pushTimeout < 0 {
		return cli.Usage(fs, "invalid -pushtimeout: %v", *pushTimeout)
	}
	if *ckptLow == 1 {
		return cli.Usage(fs, "invalid -ckptlow: %v is not a fraction in [0, 1)", *ckptLow)
	}
	if (*ckpt > 0 || *ckptLow > 0) && *harvest == 0 {
		return cli.Usage(fs, "invalid -ckpt/-ckptlow: checkpointing needs an energy schedule; set -harvest")
	}
	passes, err := cli.ParsePGOPasses(*pgo)
	if err != nil {
		return cli.Usage(fs, "invalid -pgo: %v", err)
	}
	est, err := cli.Estimator(*estName, *tick)
	if err != nil {
		return cli.Usage(fs, "invalid -estimator: %v", err)
	}

	cfg := codetomo.FleetConfig{
		Config: codetomo.Config{Workload: *regime, Seed: *seed, TickDiv: *tick, MaxCycles: *maxcycles, Estimator: est,
			PGOInline: passes.Inline, PGOSuperblock: passes.Superblock,
			PGOHotCold: passes.HotCold, PGOPagePack: passes.PagePack,
			PageCrossPenalty: *pageCost},
		Motes:           *motes,
		Workers:         *workers,
		Cohort:          *cohort,
		EventsPerPacket: *perPacket,
		DropProb:        *drop,
		DupProb:         *dup,
		ReorderProb:     *reorder,
		CorruptProb:     *corrupt,
		ARQRetries:      *arq,
		ARQBackoffTicks: *arqBackoff,
		Batches:         *batches,
	}
	cfg.Faults.CrashMTBFCycles = *crash
	cfg.Faults.BrownoutProb = *brownout
	cfg.Faults.SensorStuckProb = *stuck
	cfg.Faults.SensorNoiseProb = *adcnoise
	cfg.Faults.Seed = *faultseed
	cfg.Energy.HarvestUJPerKCycle = *harvest
	cfg.Energy.HarvestNoiseSigma = *harvestNoise
	cfg.Energy.DiurnalPeriodCycles = *diurnal
	cfg.Energy.CapacityUJ = *capacitor
	cfg.Checkpoint.EveryKInvocations = *ckpt
	cfg.Checkpoint.OnLowChargeFrac = *ckptLow
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ctfleet:", err)
		return 1
	}

	if *pushAddr != "" {
		// Client mode: stream the deployment to a running base station over
		// its ARQ'd TCP ingest — each cohort's frames go out the moment
		// they are simulated, so the fleet is never materialized client-side
		// and the station does the estimating.
		sess, err := station.DialPush(*pushAddr, station.PushConfig{Retries: *pushRetries, AckTimeout: *pushTimeout})
		if err != nil {
			fmt.Fprintln(stderr, "ctfleet:", err)
			return 1
		}
		defer sess.Close()
		pushed := 0
		err = codetomo.FleetFrames(string(src), cfg, func(frames [][]byte) error {
			pushed++
			return sess.Send(frames)
		})
		if err != nil {
			fmt.Fprintln(stderr, "ctfleet:", err)
			if errors.Is(err, station.ErrAckTimeout) {
				fmt.Fprintln(stderr, "ctfleet: the station accepted the connection but never ACKed; raise -pushtimeout or check the station")
			}
			return 1
		}
		st := sess.Stats()
		fmt.Fprintf(stdout, "pushed %d motes to %s: %d frames, %d acked, %d retransmitted, %d failed\n",
			pushed, *pushAddr, st.Frames, st.Acked, st.Retransmissions, st.Failed)
		if st.Failed > 0 {
			return 1
		}
		return 0
	}

	res, err := codetomo.RunFleet(string(src), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ctfleet:", err)
		return 1
	}

	for _, tab := range res.Fleet.Tables() {
		fmt.Fprintln(stdout, tab.Render())
	}

	cli.Report(stdout, &res.Result, "per procedure, merged fleet samples", "uninstrumented, base workload")

	if it := res.Intermittence; it != nil {
		fmt.Fprintln(stdout, "\nintermittent execution (harvested power):")
		fmt.Fprintf(stdout, "  %-34s %d completed, %d lost partials (%.1f%% completion)\n",
			"invocations", it.Completed, it.LostPartials, 100*it.CompletionRate)
		fmt.Fprintf(stdout, "  %-34s %.3g per cycle at mean duration %.0f cycles\n",
			"power-failure hazard", it.HazardPerCycle, it.MeanDurationCycles)
		fmt.Fprintf(stdout, "  %-34s %.0f measured, %.0f predicted optimized\n",
			"completed invocations per joule", it.CompletedPerJoule, it.PredictedCompletedPerJoule)
	}
	return 0
}
