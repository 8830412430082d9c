// Package lfg is math/rand's additive lagged Fibonacci generator with
// an O(1) Seed: Source draws what rand.NewSource(seed) draws, but
// builds each register word when a draw first reads it. Word i is the
// seed's Lehmer steps 21+3i … 23+3i (x·48271^j mod 2^31−1, the powers
// tabled) XORed with the cooked word init recovers from rand's draws.
package lfg

import "math/rand"

const length, tap, m31 = 607, 273, 1<<31 - 1 // register words, tap lag, Lehmer modulus

var pow [21 + 3*length]uint64 // pow[j] = 48271^j mod 2^31−1
var cooked [length]int64      // math/rand's rngCooked

func init() {
	pow[0] = 1
	for j := 1; j < len(pow); j++ {
		pow[j] = pow[j-1] * 48271 % m31
	}
	// Draw d adds the tap word (606-d) mod 607 into the feed word
	// (333-d) mod 607 and returns the sum. No feed word is written
	// before draw 607; the tap word is draw d-273's sum from d = 273.
	src := rand.NewSource(1).(rand.Source64)
	var out, reg [length]int64
	for d := range out {
		out[d] = int64(src.Uint64())
	}
	for d := tap; d < length; d++ {
		reg[(2*length-tap-1-d)%length] = out[d] - out[d-tap]
	}
	for d := 0; d < tap; d++ {
		reg[length-tap-1-d] = out[d] - reg[length-1-d]
	}
	seeded := Source{x: 1}
	for i := range cooked {
		cooked[i] = reg[i] ^ seeded.word(i)
	}
}

// Source is a math/rand Source64 whose Seed costs O(1) and allocates
// nothing. Seed a Source before use; it is not safe for concurrent use.
type Source struct {
	x uint64 // the seed, reduced as math/rand reduces it
	// The tap and feed indices are tb+run and fb+run: run counts the
	// draws left before either wraps, and stays 0 while cold.
	tb, fb, run int
	cold        int // draws until every word of reg has been written
	reg         [length]int64
}

// Seed makes s draw what rand.NewSource(seed) draws.
func (s *Source) Seed(seed int64) {
	if seed %= m31; seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
	s.tb, s.fb, s.run, s.cold = 0, length-tap, 0, length
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer. A warm draw between
// wraps is the plain additive step; one that wraps tap or feed, or is
// made while cold, takes the second path, where the feed word, and in
// the first 273 draws the tap word, is still the seed's.
func (s *Source) Uint64() uint64 {
	if s.run > 0 {
		s.run--
		f := s.fb + s.run
		x := s.reg[f] + s.reg[s.tb+s.run]
		s.reg[f] = x
		return uint64(x)
	}
	tp, fd := (s.tb+length-1)%length, (s.fb+length-1)%length
	t, f := s.reg[tp], s.reg[fd]
	if s.cold > 0 {
		if s.cold--; s.cold >= length-tap {
			t = s.word(tp)
		}
		f = s.word(fd)
	}
	if s.cold == 0 {
		s.run = min(tp, fd)
	}
	s.tb, s.fb = tp-s.run, fd-s.run
	s.reg[fd] = f + t
	return uint64(f + t)
}

// word is word i of the register rand.NewSource seeds from s.x.
func (s *Source) word(i int) int64 {
	j := 21 + 3*i
	return int64(s.x*pow[j]%m31)<<40 ^ int64(s.x*pow[j+1]%m31)<<20 ^ int64(s.x*pow[j+2]%m31) ^ cooked[i]
}
