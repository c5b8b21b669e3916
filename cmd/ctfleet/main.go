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

	codetomo "codetomo"
	"codetomo/internal/cli"
	"codetomo/internal/station"
	"codetomo/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the cli exit code.
func run(args []string, stdout, stderr io.Writer) int {
	const unbounded = math.MaxInt
	inf := math.Inf(1)
	fs := cli.NewFlagSet("ctfleet", "[flags] file.mc", stderr)
	var cfg codetomo.FleetConfig
	cli.Config(fs, &cfg.Config)
	cli.MaxCycles(fs, &cfg.MaxCycles)
	cli.Workloads(fs, &cfg.Workloads)
	cli.Int(fs, &cfg.Motes, "motes", 4, 1, codetomo.MaxFleetMotes, "deployment size")
	cli.Prob(fs, &cfg.DropProb, "drop", "per-packet loss probability in [0,1]")
	cli.Prob(fs, &cfg.DupProb, "dup", "per-packet duplication probability in [0,1]")
	cli.Prob(fs, &cfg.ReorderProb, "reorder", "per-packet reorder probability in [0,1]")
	cli.Prob(fs, &cfg.CorruptProb, "corrupt", "per-transmission bit-flip probability in [0,1]")
	cli.Int(fs, &cfg.ARQRetries, "arq", 0, 0, unbounded, "max selective-repeat retransmission rounds per uplink (0 = off)")
	fs.Uint64Var(&cfg.ARQBackoffTicks, "arqbackoff", 0, "base backoff ticks between ARQ rounds (0 = default 64)")
	fs.Uint64Var(&cfg.Faults.CrashMTBFCycles, "crash", 0, "mean cycles between watchdog resets (0 = no crash injection)")
	cli.Prob(fs, &cfg.Faults.BrownoutProb, "brownout", "probability in [0,1] that a reset is a long brownout")
	cli.Prob(fs, &cfg.Faults.SensorStuckProb, "stuck", "per-read probability in [0,1] of an ADC stuck-at episode")
	cli.Prob(fs, &cfg.Faults.SensorNoiseProb, "adcnoise", "per-read probability in [0,1] of an ADC glitch")
	fs.Int64Var(&cfg.Faults.Seed, "faultseed", 0, "fault-injection seed (0 = derive from -seed)")
	cli.Float(fs, &cfg.Energy.HarvestUJPerKCycle, "harvest", 0, 0, inf, "mean harvested power in uJ per 1000 cycles (0 = mains power; CPU draw is ~1.35)")
	cli.Float(fs, &cfg.Energy.HarvestNoiseSigma, "harvestnoise", 0, 0, inf, "sigma of the per-window lognormal harvest noise (0 = noiseless)")
	fs.Uint64Var(&cfg.Energy.DiurnalPeriodCycles, "diurnal", 0, "solar day length in cycles for the harvest envelope (0 = flat source)")
	cli.Float(fs, &cfg.Energy.CapacityUJ, "capacitor", 0, 0, inf, "storage capacitor size in uJ (0 = default 1000)")
	cli.Int(fs, &cfg.Checkpoint.EveryKInvocations, "ckpt", 0, 0, unbounded, "checkpoint every K completed invocations (0 = off)")
	cli.Prob(fs, &cfg.Checkpoint.OnLowChargeFrac, "ckptlow", "checkpoint when charge falls below this fraction in [0,1) of capacity (0 = off)")
	cli.Int(fs, &cfg.EventsPerPacket, "packet", 0, 0, trace.MaxPacketEvents, "trace events per radio packet (0 = default 32)")
	cli.Int(fs, &cfg.Batches, "batches", 0, 0, unbounded, "uplink rounds for incremental estimation (0 = default 8)")
	cli.Int(fs, &cfg.Workers, "workers", 0, 0, unbounded, "concurrent mote simulations (0 = default 4; affects wall time only)")
	cli.Int(fs, &cfg.Cohort, "cohort", 0, 0, unbounded, "motes per worker task in the streaming scheduler (0 = default 64; affects wall time and memory only)")
	var push station.PushConfig
	pushAddr := fs.String("push", "", "push the fleet's frames to a ctstationd TCP ingest at this address instead of estimating locally")
	cli.Int(fs, &push.Retries, "pushretries", 3, 0, unbounded, "stop-and-wait retransmissions per NAKed frame in -push mode")
	fs.DurationVar(&push.AckTimeout, "pushtimeout", station.DefaultAckTimeout, "per-frame ACK deadline in -push mode (a station that accepts but never answers aborts the session)")
	prof := cli.Profile(fs)
	if code, ok := fs.Parse(args, 1); !ok {
		return code
	}
	switch {
	case push.AckTimeout < 0:
		return fs.Usagef("invalid -pushtimeout: %v", push.AckTimeout)
	case cfg.Checkpoint.OnLowChargeFrac == 1:
		return fs.Usagef("invalid -ckptlow: 1 is not a fraction in [0, 1)")
	case (cfg.Checkpoint.EveryKInvocations > 0 || cfg.Checkpoint.OnLowChargeFrac > 0) && cfg.Energy.HarvestUJPerKCycle == 0:
		return fs.Usagef("invalid -ckpt/-ckptlow: checkpointing needs an energy schedule; set -harvest")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Fail(err)
	}
	return prof.Run(fs, func() int {
		if *pushAddr != "" {
			return pushFleet(fs, string(src), cfg, *pushAddr, push, stdout)
		}
		return runFleet(fs, string(src), cfg, stdout)
	})
}

// pushFleet is client mode: it streams the deployment to a running base
// station over its ARQ'd TCP ingest — each cohort's frames go out the
// moment they are simulated, so the fleet is never materialized
// client-side and the station does the estimating.
func pushFleet(fs *cli.FlagSet, src string, cfg codetomo.FleetConfig, addr string, push station.PushConfig, stdout io.Writer) int {
	sess, err := station.DialPush(addr, push)
	if err != nil {
		return fs.Fail(err)
	}
	defer sess.Close()
	pushed := 0
	err = codetomo.FleetFrames(src, cfg, func(frames [][]byte) error {
		pushed++
		return sess.Send(frames)
	})
	if err != nil {
		code := fs.Fail(err)
		if errors.Is(err, station.ErrAckTimeout) {
			fmt.Fprintln(fs.Output(), "ctfleet: the station accepted the connection but never ACKed; raise -pushtimeout or check the station")
		}
		return code
	}
	st := sess.Stats()
	fmt.Fprintf(stdout, "pushed %d motes to %s: %d frames, %d acked, %d retransmitted, %d failed\n",
		pushed, addr, st.Frames, st.Acked, st.Retransmissions, st.Failed)
	if st.Failed > 0 {
		return cli.ExitFailure
	}
	return cli.ExitOK
}

// runFleet simulates the deployment, estimates locally, and reports.
func runFleet(fs *cli.FlagSet, src string, cfg codetomo.FleetConfig, stdout io.Writer) int {
	res, err := codetomo.RunFleet(src, cfg)
	if err != nil {
		return fs.Fail(err)
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
	return cli.ExitOK
}
