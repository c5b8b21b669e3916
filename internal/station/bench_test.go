package station_test

import (
	"testing"

	"codetomo/internal/fleet"
	"codetomo/internal/station"
)

// benchFleet caches one simulated deployment across benchmark runs.
var benchFleet []fleet.MoteResult

func benchUploads(b *testing.B) []fleet.MoteResult {
	b.Helper()
	if benchFleet == nil {
		benchFleet = simulateFleet(b, 4)
	}
	return benchFleet
}

// BenchmarkIngest measures the raw frame path: decode, then the locked
// apply to the receive window, with no WAL.
func BenchmarkIngest(b *testing.B) {
	uploads := benchUploads(b)
	var frames [][]byte
	var bytes int
	for _, up := range uploads {
		frames = append(frames, up.Frames...)
		for _, f := range up.Frames {
			bytes += len(f)
		}
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newStation(b, station.Config{})
		b.StartTimer()
		for _, f := range frames {
			if err := s.IngestFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkEpochCut measures a full seal: harvest under the window lock,
// estimation, snapshot build.
func BenchmarkEpochCut(b *testing.B) {
	uploads := benchUploads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newStation(b, station.Config{})
		ingestUploads(b, s, uploads)
		b.StartTimer()
		if _, err := s.CutEpoch(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
