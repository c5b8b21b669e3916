package bench

import (
	"fmt"
	"time"

	codetomo "codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/report"
	"codetomo/internal/station"
)

// StationIngestSweep measures the base-station service's ingest
// throughput across deployment size and shard count: one simulated fleet
// round is fed through the in-process ingest path (decode, route,
// reassemble) with an epoch cut every fixed number of frames, so the
// figure covers the full standing cost of the service — reassembly,
// seal-and-rebase, streaming estimation, and snapshot publication.
// Snapshots are sharding-invariant by construction; only the wall time
// moves with the shard count.
func StationIngestSweep(c Config) (*report.Table, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("bench: app %q missing", fleetApp)
	}
	const epochEvery = 256
	perMote := c.Samples / 4
	src, err := app.Source(perMote)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "ST1: station ingest throughput vs. shards and fleet size",
		Header: []string{"motes", "shards", "frames", "epochs", "wall ms", "frames/s", "epochs/s"},
		Note: fmt.Sprintf("%s, %d invocations per mote, epoch cut every %d frames, tick=%d cycles",
			app.Name, perMote, epochEvery, c.TickDiv),
	}
	for _, motes := range []int{2, 4, 8} {
		uploads, err := codetomo.FleetUploads(src, c.fleetConfig(app, motes))
		if err != nil {
			return nil, err
		}
		for _, shards := range []int{1, 2, 4} {
			srv, err := station.New(station.Config{
				Program:   src,
				Shards:    shards,
				TickDiv:   c.TickDiv,
				Predictor: c.Predictor,
				MaxVisits: c.MaxVisits,
			})
			if err != nil {
				return nil, err
			}
			frames := 0
			start := time.Now()
			for _, up := range uploads {
				for _, f := range up.Frames {
					if err := srv.IngestFrame(f); err != nil {
						srv.Close()
						return nil, err
					}
					frames++
					if frames%epochEvery == 0 {
						if _, err := srv.CutEpoch(); err != nil {
							srv.Close()
							return nil, err
						}
					}
				}
			}
			if _, err := srv.CutEpoch(); err != nil {
				srv.Close()
				return nil, err
			}
			wall := time.Since(start)
			epochs := srv.Epoch()
			if err := srv.Close(); err != nil {
				return nil, err
			}
			secs := wall.Seconds()
			t.AddRow(report.I(motes), report.I(shards), report.I(frames), report.I(int(epochs)),
				fmt.Sprintf("%.1f", 1e3*secs),
				fmt.Sprintf("%.0f", float64(frames)/secs),
				fmt.Sprintf("%.1f", float64(epochs)/secs))
		}
	}
	return t, nil
}
