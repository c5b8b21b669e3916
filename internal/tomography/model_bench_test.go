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

// crcProfile compiles crc the way the pipeline profiles it and returns the
// build and the name of crc's handler.
func crcProfile(tb testing.TB) (*compile.Output, string) {
	tb.Helper()
	a, _ := apps.ByName("crc")
	src, err := a.Source(100)
	if err != nil {
		tb.Fatal(err)
	}
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		tb.Fatal(err)
	}
	return prof, a.Handler
}

// newCRCModel builds the path model of crc's handler at the pipeline's
// enumeration bound, where it reaches the path cap: the largest model any
// app builds, so path enumeration dominates.
func newCRCModel(tb testing.TB, prof *compile.Output, handler string) *tomography.Model {
	tb.Helper()
	enum := markov.EnumerateOptions{MaxVisits: pipeline.DefaultMaxVisits, MaxPaths: pipeline.MaxPaths}
	m, err := tomography.NewModelOpts(prof, handler, mote.StaticNotTaken{}, enum, tomography.ModelOptions{StaticResolve: true})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func BenchmarkNewModelCRC(b *testing.B) {
	prof, handler := crcProfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newCRCModel(b, prof, handler)
	}
}
