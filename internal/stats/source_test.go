package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// identitySeeds are the seeds the bit-identity tests cover: every branch of
// the seed normalisation (zero, which math/rand replaces with 89482311;
// negatives; multiples of the modulus 2³¹−1; the int64 extremes) plus a
// thousand more drawn from a fixed stream.
func identitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	r := rand.New(rand.NewSource(20150329))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	return seeds
}

// TestSourceMatchesMathRand requires the stats-owned source to produce
// exactly math/rand's raw stream for every covered seed.
func TestSourceMatchesMathRand(t *testing.T) {
	var s source
	for _, seed := range identitySeeds() {
		std := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < 1500; i++ {
			if got, want := s.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if got, want := s.Int63(), std.Int63(); got != want {
			t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, got, want)
		}
	}
}

// FuzzSource compares the source with math/rand draw by draw: n draws on
// one seed, a Reseed mid-stream, then m draws on another, through both
// Uint64 and Int63. The counts reach past the 334-draw seeding window, so
// a Reseed can land before, inside or after it.
func FuzzSource(f *testing.F) {
	f.Add(int64(1), uint16(0), int64(2), uint16(700))
	f.Add(int64(0), uint16(1), int64(-1), uint16(334))
	f.Add(int64(int32max), uint16(273), int64(math.MinInt64), uint16(335))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, reseed int64, m uint16) {
		var s source
		for _, run := range []struct {
			seed  int64
			draws int
		}{{seed, int(n % 1024)}, {reseed, int(m % 1024)}} {
			s.Seed(run.seed)
			std := rand.NewSource(run.seed).(rand.Source64)
			for i := 0; i < run.draws; i++ {
				var got, want uint64
				if i%3 == 0 {
					got, want = uint64(s.Int63()), uint64(std.Int63())
				} else {
					got, want = s.Uint64(), std.Uint64()
				}
				if got != want {
					t.Fatalf("seed %d draw %d: %#x, math/rand %#x", run.seed, i, got, want)
				}
			}
		}
	})
}

// TestRNGMatchesMathRand checks the derived distributions the system
// draws, through the RNG API, against a math/rand generator on the same
// seed.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range identitySeeds() {
		g, std := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if got, want := g.Float64(), std.Float64(); got != want {
				t.Fatalf("seed %d: Float64 = %v, math/rand %v", seed, got, want)
			}
			if got, want := g.Normal(0, 1), std.NormFloat64(); got != want {
				t.Fatalf("seed %d: Normal = %v, math/rand NormFloat64 %v", seed, got, want)
			}
			if got, want := g.Exponential(1), std.ExpFloat64(); got != want {
				t.Fatalf("seed %d: Exponential = %v, math/rand ExpFloat64 %v", seed, got, want)
			}
			n := 1 + i*i*i*1000
			if got, want := g.Intn(n), std.Intn(n); got != want {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, n, got, want)
			}
		}
		if got, want := g.Perm(20), std.Perm(20); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, got, want)
		}
	}
}

// TestReseedMatchesNewRNG requires a reseeded, partly drained RNG to
// continue exactly as a fresh one.
func TestReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(99)
	for _, seed := range identitySeeds()[:64] {
		g.Intn(1000)
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 700; i++ {
			if got, want := g.Float64(), fresh.Float64(); got != want {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, got, want)
			}
		}
	}
}

// TestRNGCookedDerivation spot-checks the seeding table recovered from
// math/rand against the constants math/rand's rng.go lists first and
// last.
func TestRNGCookedDerivation(t *testing.T) {
	want := map[int]int64{
		0:   -4181792142133755926,
		1:   -4576982950128230565,
		2:   1395769623340756751,
		3:   5333664234075297259,
		604: 8382142935188824023,
		605: 9103922860780351547,
		606: 4152330101494654406,
	}
	for i, w := range want {
		if rngCooked[i] != w {
			t.Fatalf("rngCooked[%d] = %d, want %d", i, rngCooked[i], w)
		}
	}
}

var (
	sinkF float64
	sinkU uint64
)

// BenchmarkDraw compares the per-draw cost of an RNG on the stats-owned
// source with the same RNG on math/rand's source, on the hot distribution
// (Float64, one Int63 per call), and the two raw sources.
func BenchmarkDraw(b *testing.B) {
	b.Run("stats", func(b *testing.B) {
		g := NewRNG(1)
		for i := 0; i < b.N; i++ {
			sinkF += g.Float64()
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		g := &RNG{r: rand.New(rand.NewSource(1))}
		for i := 0; i < b.N; i++ {
			sinkF += g.Float64()
		}
	})
	b.Run("source/stats", func(b *testing.B) {
		var s source
		s.Seed(1)
		for i := 0; i < b.N; i++ {
			sinkU += s.Uint64()
		}
	})
	b.Run("source/mathrand", func(b *testing.B) {
		s := rand.NewSource(1).(rand.Source64)
		for i := 0; i < b.N; i++ {
			sinkU += s.Uint64()
		}
	})
}

// BenchmarkSeed measures what a task that reseeds a long-lived RNG pays:
// one Reseed, then k draws (Float64, one source draw each), on the stats
// source and on math/rand's. Reseed alone is nearly free on the stats
// source, whose first 334 draws seed the slots they read, so k = 0 would
// flatter it; k = 700 is past the seeding window.
func BenchmarkSeed(b *testing.B) {
	for _, k := range []int{0, 16, 64, 700} {
		b.Run(fmt.Sprintf("stats/k=%d", k), func(b *testing.B) {
			g := NewRNG(1)
			for i := 0; i < b.N; i++ {
				g.Reseed(int64(i))
				for j := 0; j < k; j++ {
					sinkF += g.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("mathrand/k=%d", k), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < k; j++ {
					sinkF += r.Float64()
				}
			}
		})
	}
}
