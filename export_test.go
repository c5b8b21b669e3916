package codetomo

import (
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/pipeline"
)

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
