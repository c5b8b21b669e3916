package codetomo

import (
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
)

// PipelineAppsInvocations is the handler invocation count of every app in
// the benchmark's pipeline_apps workload.
const PipelineAppsInvocations = 3000

// PipelineAppsConfig is the configuration of the benchmark's pipeline_apps
// workload (perfbench/pipeline.go): static branch resolution, all four PGO
// passes and a 5-cycle flash page-cross penalty, every default explicit.
func PipelineAppsConfig(workload string, seed int64) Config {
	return Config{
		Workload:         workload,
		Seed:             seed,
		TickDiv:          8,
		Predictor:        mote.StaticNotTaken{},
		Estimator:        tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: 8}},
		MinSamples:       50,
		MaxCycles:        2_000_000_000,
		MaxVisits:        12,
		MinCoverage:      0.85,
		StaticResolve:    true,
		PGOInline:        true,
		PGOSuperblock:    true,
		PGOHotCold:       true,
		PGOPagePack:      true,
		PageCrossPenalty: 5,
	}
}

// EstimateBatch is Run's gate-and-estimate path, fed one profile's
// exclusive tick counts by procedure index.
func EstimateBatch(cfg Config, prof *compile.Output, ticks map[int][]uint64) []pipeline.Outcome {
	procs, _ := cfg.withDefaults().settings().Batch(prof, ticks)
	return procs
}

// EstimateStreams is RunFleet's gate-and-estimate path, fed uplink rounds
// of duration samples by procedure index from a mains-powered fleet.
func EstimateStreams(cfg FleetConfig, prof *compile.Output, rounds map[int][][]float64) ([]pipeline.Outcome, error) {
	cfg = cfg.withDefaults()
	pool := fleet.NewPool(cfg.Workers)
	procs, _, _, err := cfg.estimateStreams(pool, prof, buildModels(pool, prof, cfg.settings()), rounds, nil)
	return procs, err
}
