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
//	ctfleet [-motes 4] [-drop 0.2] [-corrupt 0.05] [-arq 3] [-crash 2000000] [-robust] file.mc
//	ctfleet -harvest 0.8 -capacitor 60 -ckpt 4 file.mc    # intermittent, energy-harvesting fleet
//	ctfleet -motes 4 -push 127.0.0.1:7100 file.mc    # upload to a running ctstationd instead
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
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
	fs := flag.NewFlagSet("ctfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	motes := fs.Int("motes", 4, "deployment size")
	workloads := fs.String("workloads", "", "comma-separated input regimes assigned round-robin (default: -workload for every mote)")
	regime := fs.String("workload", "gaussian", "base input regime: gaussian, uniform, bursty, regime, diurnal")
	seed := fs.Int64("seed", 1, "master random seed (motes, clocks, channel, and faults derive from it)")
	tick := fs.Int("tick", 8, "timer prescaler in cycles")
	estName := fs.String("estimator", "em", "estimator: em, moments, or histogram")
	drop := fs.Float64("drop", 0, "per-packet loss probability in [0,1]")
	dup := fs.Float64("dup", 0, "per-packet duplication probability in [0,1]")
	reorder := fs.Float64("reorder", 0, "per-packet reorder probability in [0,1]")
	corrupt := fs.Float64("corrupt", 0, "per-transmission bit-flip probability in [0,1]")
	arq := fs.Int("arq", 0, "max selective-repeat retransmission rounds per uplink (0 = off)")
	arqBackoff := fs.Uint64("arqbackoff", 0, "base backoff ticks between ARQ rounds (0 = default 64)")
	crash := fs.Uint64("crash", 0, "mean cycles between watchdog resets (0 = no crash injection)")
	brownout := fs.Float64("brownout", 0, "probability in [0,1] that a reset is a long brownout")
	stuck := fs.Float64("stuck", 0, "per-read probability in [0,1] of an ADC stuck-at episode")
	adcnoise := fs.Float64("adcnoise", 0, "per-read probability in [0,1] of an ADC glitch")
	faultseed := fs.Int64("faultseed", 0, "fault-injection seed (0 = derive from -seed)")
	harvest := fs.Float64("harvest", 0, "mean harvested power in uJ per 1000 cycles (0 = mains power; CPU draw is ~1.35)")
	harvestNoise := fs.Float64("harvestnoise", 0, "sigma of the per-window lognormal harvest noise (0 = noiseless)")
	diurnal := fs.Uint64("diurnal", 0, "solar day length in cycles for the harvest envelope (0 = flat source)")
	capacitor := fs.Float64("capacitor", 0, "storage capacitor size in uJ (0 = default 1000)")
	ckpt := fs.Int("ckpt", 0, "checkpoint every K completed invocations (0 = off)")
	ckptLow := fs.Float64("ckptlow", 0, "checkpoint when charge falls below this fraction of capacity (0 = off)")
	maxcycles := fs.Uint64("maxcycles", 0, "per-mote cycle budget (0 = default)")
	robust := fs.Bool("robust", false, "outlier-robust estimation with per-procedure confidence gating")
	trim := fs.Float64("trim", 0, "robust outlier cut in cycles (0 = default 4x the EM kernel)")
	maxtrim := fs.Float64("maxtrim", 0, "trim fraction in [0,1] beyond which a procedure is low-confidence (0 = default 0.25)")
	perPacket := fs.Int("packet", 0, "trace events per radio packet (0 = default 32)")
	batches := fs.Int("batches", 0, "uplink rounds for incremental estimation (0 = default 8)")
	workers := fs.Int("workers", 0, "concurrent mote simulations (0 = default 4; affects wall time only)")
	cohort := fs.Int("cohort", 0, "motes per worker task in the streaming scheduler (0 = default 64; affects wall time and memory only)")
	pushAddr := fs.String("push", "", "push the fleet's frames to a ctstationd TCP ingest at this address instead of estimating locally")
	pushRetries := fs.Int("pushretries", 3, "stop-and-wait retransmissions per NAKed frame in -push mode")
	pushTimeout := fs.Duration("pushtimeout", station.DefaultAckTimeout, "per-frame ACK deadline in -push mode (a station that accepts but never answers aborts the session)")
	pgo := fs.String("pgo", "", "profile-guided passes beyond placement: comma-separated subset of inline,superblock,hotcold,pagepack, or all/none")
	pageCost := fs.Int("pagecost", 0, "flash page-crossing penalty in cycles charged by the mote (0 = uniform flash)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ctfleet:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ctfleet:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "ctfleet:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "ctfleet:", err)
			}
		}()
	}
	usage := cli.Usage(fs, stderr, "ctfleet", "[flags] file.mc")
	if fs.NArg() != 1 {
		return usage("expected exactly one source file, got %d args", fs.NArg())
	}
	if p, bad := cli.BadProbability(
		cli.ProbFlag{Name: "-drop", Val: *drop}, cli.ProbFlag{Name: "-dup", Val: *dup},
		cli.ProbFlag{Name: "-reorder", Val: *reorder}, cli.ProbFlag{Name: "-corrupt", Val: *corrupt},
		cli.ProbFlag{Name: "-brownout", Val: *brownout}, cli.ProbFlag{Name: "-stuck", Val: *stuck},
		cli.ProbFlag{Name: "-adcnoise", Val: *adcnoise}, cli.ProbFlag{Name: "-maxtrim", Val: *maxtrim},
	); bad {
		return usage("invalid %s: %v is not a probability in [0, 1]", p.Name, p.Val)
	}
	if *arq < 0 {
		return usage("invalid -arq: %d retransmission rounds", *arq)
	}
	if *trim < 0 {
		return usage("invalid -trim: %v cycles", *trim)
	}
	if *motes < 1 {
		return usage("invalid -motes: %d", *motes)
	}
	if *cohort < 0 {
		return usage("invalid -cohort: %d", *cohort)
	}
	if *pushRetries < 0 {
		return usage("invalid -pushretries: %d", *pushRetries)
	}
	if *pushTimeout < 0 {
		return usage("invalid -pushtimeout: %v", *pushTimeout)
	}
	if *harvest < 0 {
		return usage("invalid -harvest: %v uJ/kcycle", *harvest)
	}
	if *harvestNoise < 0 {
		return usage("invalid -harvestnoise: %v", *harvestNoise)
	}
	if *capacitor < 0 {
		return usage("invalid -capacitor: %v uJ", *capacitor)
	}
	if *ckpt < 0 {
		return usage("invalid -ckpt: %d invocations", *ckpt)
	}
	if *ckptLow < 0 || *ckptLow >= 1 {
		return usage("invalid -ckptlow: %v is not a fraction in [0, 1)", *ckptLow)
	}
	if (*ckpt > 0 || *ckptLow > 0) && *harvest == 0 {
		return usage("invalid -ckpt/-ckptlow: checkpointing needs an energy schedule; set -harvest")
	}
	passes, err := cli.ParsePGOPasses(*pgo)
	if err != nil {
		return usage("invalid -pgo: %v", err)
	}
	if *pageCost < 0 {
		return usage("invalid -pagecost: %d cycles", *pageCost)
	}

	cfg := codetomo.FleetConfig{
		Config: codetomo.Config{Workload: *regime, Seed: *seed, TickDiv: *tick, MaxCycles: *maxcycles,
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
		Robust:          *robust,
		TrimWidth:       *trim,
		MaxTrimFraction: *maxtrim,
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
	est, err := cli.Estimator(*estName, *tick)
	if err != nil {
		return usage("invalid -estimator: %v", err)
	}
	cfg.Estimator = est
	if *robust && *estName != "em" {
		return usage("invalid -robust: the robust estimator wraps EM; drop -estimator %s", *estName)
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

	fmt.Fprintln(stdout, "estimates (per procedure, merged fleet samples):")
	for _, pe := range res.Estimates {
		if pe.Fallback {
			fmt.Fprintf(stdout, "  %-14s %6d samples  (untrusted model; layout left unchanged)\n", pe.Proc, pe.SampleCount)
			continue
		}
		note := ""
		if pe.TrimmedSamples > 0 {
			note = fmt.Sprintf("  [%d outliers trimmed]", pe.TrimmedSamples)
		}
		if pe.LowConfidence {
			note += "  [low confidence; layout left unchanged]"
		}
		fmt.Fprintf(stdout, "  %-14s %6d samples  MAE vs fleet oracle %.4f%s\n", pe.Proc, pe.SampleCount, pe.MAE, note)
		for _, b := range pe.Branches {
			warn := ""
			if b.Ambiguity > 0.9 {
				warn = "  [structurally ambiguous at this timer resolution]"
			}
			fmt.Fprintf(stdout, "      b%-3d -> b%-3d  est %.3f  oracle %.3f%s\n", b.FromBlock, b.ToBlock, b.Prob, b.Oracle, warn)
		}
	}

	fmt.Fprintln(stdout, "\nplacement result (uninstrumented, base workload):")
	fmt.Fprintf(stdout, "  %-22s %14s %14s\n", "", "original", "optimized")
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "cycles", res.Before.Cycles, res.After.Cycles)
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "cond branches", res.Before.CondBranches, res.After.CondBranches)
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "mispredicts", res.Before.Mispredicts, res.After.Mispredicts)
	fmt.Fprintf(stdout, "  %-22s %13.2f%% %13.2f%%\n", "mispredict rate",
		100*res.Before.MispredictRate(), 100*res.After.MispredictRate())
	fmt.Fprintf(stdout, "  %-22s %14.1f %14.1f\n", "energy (uJ)", res.Before.EnergyUJ, res.After.EnergyUJ)
	fmt.Fprintf(stdout, "\n  misprediction reduction: %.1f%%   speedup: %.3fx\n",
		100*res.MispredictReduction(), res.Speedup())

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
