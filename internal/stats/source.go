package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// rand.NewSource algorithm), bit-identical to it for every seed and every
// draw. It exists for its Seed, which is O(1). The stdlib seeds all 607
// register words up front by walking a Lehmer chain, one dependent
// division per step, which costs as much as thousands of draws; a fleet
// mote reseeds several streams and may draw only a few values from each.
//
// Here the register is seeded lazily, one slot at a time, on the draw that
// first reads the slot. Slot i's word is a closed form of the seed alone
// (lehmerWord), so slots can be seeded in any order. Seed stores the
// normalised seed and zeroes a draw counter. The cursors walk down from
// tap 0 and feed 334: on draws 1–334 the feed slot (333 down to 0) and on
// draws 1–273 the tap slot (606 down to 334) have not been read since the
// Seed, so Uint64 writes their seeded words before reading them. Every
// later draw reads only slots already seeded or fed and is the plain draw.
type source struct {
	tap, feed int32  // indices into vec
	seed      uint32 // the normalised seed, in [1, 2³¹−1)
	drawn     int32  // draws since Seed, counted until every slot is seeded
	vec       [rngLen]int64
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

// lehmerPow[i] is A^(20+3i) mod 2³¹−1: math/rand discards the chain's
// first 20 values, then takes three consecutive values per slot, so slot
// i starts from seed·lehmerPow[i].
var lehmerPow = func() (pow [rngLen]uint32) {
	x := uint64(lehmerA20)
	for i := range pow {
		pow[i] = uint32(x)
		x = mulMod(x, lehmerA3)
	}
	return pow
}()

// lehmerWord is slot i's Lehmer word for a normalised seed: the slot's
// three chain values, through A, A² and A³ of its starting value, packed
// as math/rand packs them. A seeded register holds lehmerWord XOR
// rngCooked.
func lehmerWord(seed uint32, i int32) int64 {
	x := mulMod(uint64(seed), uint64(lehmerPow[i]))
	return int64(mulMod(x, lehmerA))<<40 ^ int64(mulMod(x, lehmerA2))<<20 ^ int64(mulMod(x, lehmerA3))
}

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
	for i := range cooked {
		cooked[i] = s.vec[i] ^ lehmerWord(seed, int32(i))
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

// Seed resets the source to math/rand's seeded state for seed. The
// register's words are written by the draws that first read them.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.seed, s.drawn = 0, rngLen-rngTap, uint32(seed), 0
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
	if s.drawn < rngLen-rngTap {
		s.seedSlots()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seedSlots counts a draw inside the seeding window and writes the seeded
// word into each slot the draw is the first to read: the feed slot on
// draws 1–334, the tap slot on draws 1–273.
func (s *source) seedSlots() {
	s.drawn++
	s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ rngCooked[s.feed]
	if s.drawn <= rngTap {
		s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ rngCooked[s.tap]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It repeats
// Uint64's body instead of calling it: the seeding call keeps Uint64 from
// inlining, and Int63 is the draw behind every Float64 and Intn.
func (s *source) Int63() int64 {
	s.step()
	if s.drawn < rngLen-rngTap {
		s.seedSlots()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}
