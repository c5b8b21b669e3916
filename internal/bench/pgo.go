package bench

import (
	"fmt"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/pipeline"
	"codetomo/internal/report"
)

// pgoPageCrossPenalty is the flash-page refill cost the PGO sweep charges
// per page-crossing redirect — the regime where page packing has something
// to optimize. Both the compiler and the mote run under the same model.
const pgoPageCrossPenalty = 5

// pgoPasses enumerates the single-pass configurations of the sweep, in
// pipeline order.
var pgoPasses = []struct {
	name string
	set  func(*compile.PGOOptions)
}{
	{"inline", func(o *compile.PGOOptions) { o.Inline = true }},
	{"superblock", func(o *compile.PGOOptions) { o.Superblock = true }},
	{"hotcold", func(o *compile.PGOOptions) { o.HotCold = true }},
	{"pagepack", func(o *compile.PGOOptions) { o.PagePack = true }},
}

// PGOSweep measures what each profile-guided pass adds on top of
// estimation-based placement: every app is profiled once via timestamps,
// the estimated probabilities feed both the placement plan and the PGO
// edge weights, and then the identical workload runs under placement
// alone, under each single pass stacked on placement, and under all four
// passes together — all with the same flash-page penalty in force.
func PGOSweep(c Config) (*report.Table, error) {
	t := &report.Table{
		Title: "PG1: execution cycles by profile-guided pass, normalized to placement-only",
		Header: []string{"app", "placed cycles", "inline", "superblock", "hotcold",
			"pagepack", "stacked", "saved"},
		Note: fmt.Sprintf("lower is better; 1.0000 = estimation-based placement under a %d-cycle page-cross penalty; saved = placed - stacked cycles",
			pgoPageCrossPenalty),
	}

	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = pgoPageCrossPenalty

	// The placement corpus is branch-heavy; CallChain adds the call-heavy
	// shape the inlining pass exists for.
	suite := append(apps.All(), apps.CallChain)
	for i, a := range suite {
		seedOffset := int64(1000 + i)

		// One profiling run; its estimates drive every optimized build.
		prof, ctProbs, err := c.profile(a, seedOffset)
		if err != nil {
			return nil, err
		}
		plan := layout.PlanAll(prof.Out.CFG, ctProbs)
		weights := pipeline.Weights(prof.Out.CFG, ctProbs)

		measure := func(pgo *compile.PGOOptions) (uint64, error) {
			r, err := c.execute(a, compile.Options{
				Layouts:     plan.Layouts,
				BranchHints: plan.Hints,
				Cost:        cost,
				PGO:         pgo,
			}, seedOffset)
			if err != nil {
				return 0, err
			}
			return r.Machine.Stats().Cycles, nil
		}

		placed, err := measure(nil)
		if err != nil {
			return nil, fmt.Errorf("%s/placement: %w", a.Name, err)
		}
		row := []string{a.Name, report.I(int(placed))}
		for _, pass := range pgoPasses {
			pgo := &compile.PGOOptions{Weights: weights}
			pass.set(pgo)
			cycles, err := measure(pgo)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.Name, pass.name, err)
			}
			row = append(row, report.F(float64(cycles)/float64(placed), 4))
		}
		all := &compile.PGOOptions{Weights: weights}
		for _, pass := range pgoPasses {
			pass.set(all)
		}
		stacked, err := measure(all)
		if err != nil {
			return nil, fmt.Errorf("%s/stacked: %w", a.Name, err)
		}
		row = append(row,
			report.F(float64(stacked)/float64(placed), 4),
			report.I(int(placed)-int(stacked)))
		t.AddRow(row...)
	}
	return t, nil
}
