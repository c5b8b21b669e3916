package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// rand.NewSource algorithm), bit-identical to it for every seed and every
// draw. It exists for its Seed: the stdlib seeds the 607-word register by
// walking a Lehmer chain with Schrage's method, one dependent division per
// step, which makes seeding cost as much as thousands of draws. Here the
// chain is reduced by shift-and-add modulo 2³¹−1, and each slot's three
// words come from the slot's starting value through A, A² and A³, so the
// three multiplications are independent.
type source struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	// lehmerA is the seeding chain's multiplier, x ← A·x mod 2³¹−1; the
	// powers are folded at compile time.
	lehmerA   = 48271
	lehmerA2  = lehmerA * lehmerA % int32max
	lehmerA3  = lehmerA2 * lehmerA % int32max
	lehmerA4  = lehmerA2 * lehmerA2 % int32max
	lehmerA16 = lehmerA4 * lehmerA4 % int32max * lehmerA4 % int32max * lehmerA4 % int32max
	lehmerA20 = lehmerA16 * lehmerA4 % int32max
)

// rngCooked is math/rand's seeding table: a seeded register is the Lehmer
// words XOR this table. Rather than carry a copy of its 607 constants, it
// is read back out of math/rand itself. 607 draws overwrite every slot of
// a seeded register exactly once, so the outputs, placed in the slots
// their draws wrote, are the register after the draws. Undoing the draws
// in reverse (each subtracts the tap it added) recovers the seeded
// register, and XOR-ing out the seed's Lehmer words leaves the table.
var rngCooked = func() (cooked [rngLen]int64) {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	s := source{feed: rngLen - rngTap}
	for range s.vec {
		s.step()
		s.vec[s.feed] = int64(std.Uint64())
	}
	for range s.vec {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % rngLen
		s.feed = (s.feed + 1) % rngLen
	}
	var words source
	words.seed(seed, &cooked) // cooked is still all zero: pure Lehmer words
	for i := range cooked {
		cooked[i] = s.vec[i] ^ words.vec[i]
	}
	return cooked
}()

// mulMod returns x·a mod 2³¹−1 for x, a in [1, 2³¹−1). The product fits
// in 62 bits; one fold of the high bits onto the low ones and one
// conditional subtraction reduce it, since 2³¹ ≡ 1.
func mulMod(x, a uint64) uint64 {
	t := x * a
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// Seed resets the register to math/rand's seeded state for seed.
func (s *source) Seed(seed int64) { s.seed(seed, &rngCooked) }

func (s *source) seed(seed int64, cooked *[rngLen]int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	// math/rand discards the chain's first 20 values, then takes three
	// consecutive values per slot.
	x := mulMod(uint64(seed), lehmerA20)
	for i := range s.vec {
		x1 := mulMod(x, lehmerA)
		x2 := mulMod(x, lehmerA2)
		x = mulMod(x, lehmerA3)
		s.vec[i] = int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x) ^ cooked[i]
	}
}

// step advances the tap and feed cursors one draw.
func (s *source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
