// Package xrand provides a drop-in replacement for math/rand's default
// Source64 whose Seed is far cheaper, producing BIT-IDENTICAL output.
//
// Why it exists: the experiment harness reseeds one persistent RNG per
// sample ((*rand.Rand).Seed(s) must restore exactly the state of
// rand.New(rand.NewSource(s)) — the determinism contract of parEach), and
// profiling shows that at benchmark scale the stdlib reseed dominates the
// per-sample cost: rngSource.Seed runs a ~1841-step sequential Lehmer
// recurrence to refill its 607-word lagged-Fibonacci state, even though a
// typical sample then draws only a few dozen values from it.
//
// Two ideas remove almost all of that work while keeping the output stream
// bit-identical:
//
//  1. Leapfrog chains. The stdlib fills word i from three consecutive draws
//     of one serial Lehmer recurrence. Splitting the recurrence into twelve
//     chains that each advance by A¹² = 48271¹² mod (2³¹−1) yields the same
//     draws with twelve-way instruction-level parallelism, and — because
//     A^k mod M is a precomputable constant for any fixed k — lets a chain
//     jump to ANY word index with a single multiply.
//
//  2. Lazy, demand-driven fill. The lagged-Fibonacci consumer reads the
//     seeded state in a fixed order: draw k reads slot 333−k (the feed, then
//     overwritten) and slot 606−k (the tap), so the seed-original value of
//     every slot is consumed by two strictly descending single-pass windows
//     — [333..0] and [606..334]. Seed therefore only positions chain states
//     at the top of each window (one jump multiply per chain) and each slot
//     is materialized right before its first read, stepping the chains
//     DOWNWARD by A⁻¹² as the windows descend. A source that draws n values
//     pays O(n) fill work instead of all 607 words; a source that drains
//     everything does the same total work as an eager fill.
//
// The stdlib generator is frozen by the Go 1 compatibility promise (its
// output is documented to be stable for a given seed), which is what makes
// mirroring it sound. Rather than embedding the 607-word additive-feedback
// seasoning table (rngCooked, an unexported stdlib array), it is recovered
// from observable stdlib outputs on first use (the first Seed or New) and
// the whole construction is self-verified against math/rand before that
// first Seed returns — if any stdlib detail ever shifted, the first Seed
// panics rather than silently diverging a golden table. Doing this on first
// use rather than at init keeps it off the startup of every command that
// links the package but never draws.
package xrand

import (
	"fmt"
	"math/rand"
	"sync"
)

const (
	rngLen  = 607 // degree of the lagged-Fibonacci recurrence
	rngTap  = 273 // lag distance: vec[feed] += vec[tap]
	lehmerM = 1<<31 - 1
	lehmerA = 48271 // Park–Miller multiplier used by the stdlib seed scrambler
)

// cooked mirrors math/rand's rngCooked seasoning table, recovered from
// stdlib outputs by setup (see recoverCooked): after Seed(s) the state word i
// is lehmerFill(s)[i] XOR cooked[i].
var cooked [rngLen]uint64

// Powers of the scrambler multiplier (mod M = 2³¹−1, a prime):
//
//	lehmerA12    — A¹², the per-stride advance of the twelve leapfrog chains
//	               (four words per stride, three draws per word);
//	lehmerAinv12 — A⁻¹² = (A¹²)^(M−2), the DOWNWARD stride used by the lazy
//	               fill as the two consumption windows descend;
//	lehmerJump83, lehmerJump151 — A¹²ˣ⁸³ and A¹²ˣ¹⁵¹, the one-multiply jumps
//	               from stride 0 to the strides holding slot 333 (= 4·83+1,
//	               top of the feed window) and slot 606 (= 4·151+2, top of
//	               the tap window).
var (
	lehmerA12     uint64
	lehmerAinv12  uint64
	lehmerJump83  uint64
	lehmerJump151 uint64
)

// Source is a math/rand-compatible Source64 with the fast lazy Seed. The
// zero value must be seeded before use.
type Source struct {
	vec  [rngLen]int64
	tap  int
	feed int

	// Lazy-fill state. feedFill is the next slot of [333..0] awaiting its
	// pre-first-read fill (−1 when the window is drained); tapFill the next
	// slot of [606..334] (−2 when drained — a sentinel the tap cursor can
	// never equal, unlike 333 which it passes on draw 273). fch and tch hold
	// the twelve chain states (a0,b0,c0, …, a3,b3,c3) at the stride of each
	// window's current slot.
	feedFill int
	tapFill  int
	fch      [12]uint64
	tch      [12]uint64
}

// New returns a Source seeded with seed, equivalent (output-wise) to
// rand.NewSource(seed).
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// lehmer returns x·k mod M for x ∈ [1, M), k ∈ [1, M), M = 2³¹−1, without a
// division: the product (< 2⁶²) folds mod the Mersenne prime in two shifts.
// The result is never 0 because M is prime and neither factor is ≡ 0.
func lehmer(x, k uint64) uint64 {
	p := x * k
	r := (p >> 31) + (p & lehmerM)
	r = (r >> 31) + (r & lehmerM)
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// lehmerPow returns base^e mod M by square-and-multiply over lehmer.
func lehmerPow(base, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = lehmer(r, base)
		}
		base = lehmer(base, base)
	}
	return r
}

// seedPrep reduces a raw int64 seed into the scrambler's starting value,
// exactly as the stdlib does (mod 2³¹−1, negatives shifted up, 0 remapped).
func seedPrep(seed int64) uint64 {
	seed = seed % lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Seed resets the source to draw the exact stream rand.NewSource(seed)
// would. The first Seed in a process first runs setup (once, race-safe).
func (s *Source) Seed(seed int64) {
	setupOnce.Do(setup)
	s.seed(seed)
}

// seed is Seed without the setup guard: setup itself seeds through it, so
// it must not re-enter the once. The stdlib fills word i from three
// consecutive Lehmer draws (after a 20-step warmup) as
// (x₁<<40 ^ x₂<<20 ^ x₃) ^ cooked[i]; word i = 4g+k is thus chain triple k
// advanced g strides of A¹². seed runs only the warmup plus the twelve
// serial draws that define the stride-0 chain states, then jump-multiplies
// them to the top of the two consumption windows; the state words
// themselves are materialized lazily by Uint64 as each slot's first read
// approaches (see fillSlot).
func (s *Source) seed(seed int64) {
	x := seedPrep(seed)
	for i := 0; i < 20; i++ {
		x = lehmer(x, lehmerA)
	}
	for i := 0; i < 12; i++ {
		x = lehmer(x, lehmerA)
		s.fch[i] = x
	}
	for i := 0; i < 12; i++ {
		s.tch[i] = lehmer(s.fch[i], lehmerJump151)
		s.fch[i] = lehmer(s.fch[i], lehmerJump83)
	}
	s.feedFill = 333
	s.tapFill = rngLen - 1
	s.tap = 0
	s.feed = rngLen - rngTap
}

// fillSlot materializes state word w from the window chain state ch, which
// must currently sit at stride w/4, and steps the chains down one stride
// when the window's next slot (w−1) crosses a group boundary. Windows fill
// strictly descending, so each slot is produced exactly once per Seed.
func (s *Source) fillSlot(ch *[12]uint64, w int) {
	k := (w & 3) * 3
	s.vec[w] = int64((ch[k]<<40 ^ ch[k+1]<<20 ^ ch[k+2]) ^ cooked[w])
	if k == 0 && w > 0 {
		for i := range ch {
			ch[i] = lehmer(ch[i], lehmerAinv12)
		}
	}
}

// fillRest eagerly drains both lazy windows, leaving vec fully materialized
// — the state an eager Seed would have built. Only recoverCooked needs it.
func (s *Source) fillRest() {
	for s.tapFill >= rngLen-rngTap {
		s.fillSlot(&s.tch, s.tapFill)
		s.tapFill--
	}
	s.tapFill = -2
	for s.feedFill >= 0 {
		s.fillSlot(&s.fch, s.feedFill)
		s.feedFill--
	}
}

// Uint64 implements rand.Source64, stepping the additive lagged-Fibonacci
// recurrence exactly like the stdlib: decrement both cursors (wrapping),
// write vec[feed] += vec[tap], return the sum. The two fill checks
// materialize a slot the first time a cursor is about to read it; both
// compare against strictly descending watermarks, so they are well-predicted
// and cost nothing once the windows drain.
func (s *Source) Uint64() uint64 {
	t := s.tap - 1
	if t < 0 {
		t += rngLen
	}
	f := s.feed - 1
	if f < 0 {
		f += rngLen
	}
	if f == s.feedFill {
		s.fillSlot(&s.fch, f)
		s.feedFill--
	}
	if t == s.tapFill {
		s.fillSlot(&s.tch, t)
		s.tapFill--
		if s.tapFill < rngLen-rngTap {
			// Window drained: park below any reachable cursor value — the
			// tap passes slot 333 on draw 273, after the feed rewrote it.
			s.tapFill = -2
		}
	}
	x := s.vec[f] + s.vec[t]
	s.vec[f] = x
	s.tap, s.feed = t, f
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

var setupOnce sync.Once

// setup derives the stride constants, recovers the seasoning table and
// self-checks the result. Seed runs it once, before the first seeding.
func setup() {
	lehmerA12 = lehmerPow(lehmerA, 12)
	lehmerAinv12 = lehmerPow(lehmerA12, lehmerM-2)
	lehmerJump83 = lehmerPow(lehmerA12, 83)
	lehmerJump151 = lehmerPow(lehmerA12, 151)
	recoverCooked()
	selfCheck()
}

// recoverCooked reconstructs the stdlib's seasoning table from observable
// outputs. With cursors starting at (tap, feed) = (0, 334), call k reads
// tap slot (606−k) mod 607 and writes feed slot (333−k) mod 607, and slot j
// is first overwritten at call (333−j) mod 607. All additions below are
// uint64-wrapping, matching the generator's own int64 wraparound. Two
// relations pin the whole initial state vec₀ from the first 607 outputs:
//
//   - k ∈ [273, 606]: the tap value is output k−273 (that slot was rewritten
//     exactly once, at call k−273), while the feed slot is still original:
//     vec₀[(333−k) mod 607] = out[k] − out[k−273]   → slots [0,60] ∪ [334,606]
//   - k ∈ [0, 272]: both operands are still original state words:
//     vec₀[333−k] = out[k] − vec₀[606−k]            → slots [61,333]
//
// where the second uses tap slots 606−k ∈ [334, 606] already recovered by
// the first. XORing out our own Lehmer fill for the same known seed (run
// with the cooked table still zero) leaves the cooked words.
func recoverCooked() {
	const probeSeed = 1
	src := rand.NewSource(probeSeed).(rand.Source64)
	var outs [rngLen]uint64
	for k := range outs {
		outs[k] = src.Uint64()
	}
	var vec0 [rngLen]uint64
	for k := rngTap; k < rngLen; k++ {
		slot := ((333-k)%rngLen + rngLen) % rngLen
		vec0[slot] = outs[k] - outs[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec0[333-k] = outs[k] - vec0[606-k]
	}
	var s Source // cooked is still all-zero: seed yields the raw Lehmer fill
	s.seed(probeSeed)
	s.fillRest()
	for i := range cooked {
		cooked[i] = vec0[i] ^ uint64(s.vec[i])
	}
}

// selfCheck verifies the reconstruction end-to-end: for several seeds the
// Source must emit exactly the stdlib stream, including after mid-stream
// reseeds. The checked span covers both lazy windows draining plus a full
// wraparound of the recurrence. Panicking here (in the first Seed, before
// anything is drawn) is the firewall that keeps golden tables from ever
// drifting silently.
func selfCheck() {
	s := &Source{}
	for _, seed := range []int64{0, 1, -1, 42, 1 << 62, -(1 << 62)} {
		ref := rand.NewSource(seed).(rand.Source64)
		s.seed(seed)
		for i := 0; i < rngLen+rngTap+16; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				panic(fmt.Sprintf("xrand: self-check diverged from math/rand at seed %d output %d: got %#x want %#x", seed, i, got, want))
			}
		}
	}
}
