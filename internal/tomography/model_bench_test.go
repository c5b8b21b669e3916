package tomography_test

import (
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
)

// BenchmarkNewModelCRC builds the path model of crc's handler at the
// pipeline's enumeration bound, where it reaches the path cap: the largest
// model any app builds, so path enumeration dominates.
func BenchmarkNewModelCRC(b *testing.B) {
	a, _ := apps.ByName("crc")
	src, err := a.Source(100)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		b.Fatal(err)
	}
	enum := markov.EnumerateOptions{MaxVisits: pipeline.DefaultMaxVisits, MaxPaths: pipeline.MaxPaths}
	mo := tomography.ModelOptions{StaticResolve: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tomography.NewModelOpts(prof, a.Handler, mote.StaticNotTaken{}, enum, mo); err != nil {
			b.Fatal(err)
		}
	}
}
