package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBitIdenticalToStdlib is the package's whole contract: a *rand.Rand
// over Source must behave exactly like one over rand.NewSource, across the
// derived-value methods the generators actually call (Float64, Intn, Int63,
// Int63n, Perm), for adversarial seeds, and across mid-stream reseeds.
func TestBitIdenticalToStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311, math.MaxInt64, math.MinInt64,
		1<<31 - 1, 1 << 31, -(1<<31 - 1), 7919,
	}
	got := rand.New(New(0))
	want := rand.New(rand.NewSource(0))
	for _, seed := range seeds {
		got.Seed(seed)
		want.Seed(seed)
		for i := 0; i < 1500; i++ {
			switch i % 5 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Intn(997), want.Intn(997); g != w {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.Int63n(1e12), want.Int63n(1e12); g != w {
					t.Fatalf("seed %d draw %d: Int63n %v != %v", seed, i, g, w)
				}
			case 4:
				gp, wp := got.Perm(10), want.Perm(10)
				for j := range gp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d draw %d: Perm %v != %v", seed, i, gp, wp)
					}
				}
			}
		}
	}
}

// TestReseedMatchesFreshSource pins the exact property parEach relies on:
// Seed(s) on a used source restores the state of a brand-new source.
func TestReseedMatchesFreshSource(t *testing.T) {
	s := New(12345)
	for i := 0; i < 10_000; i++ {
		s.Uint64() // scramble well past one full state cycle
	}
	for _, seed := range []int64{3, -99, 0, math.MaxInt64 - 1} {
		s.Seed(seed)
		fresh := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 700; i++ {
			if g, w := s.Uint64(), fresh.Uint64(); g != w {
				t.Fatalf("reseed(%d) output %d: %#x != %#x", seed, i, g, w)
			}
		}
	}
}

// TestSelfCheck runs the construction's self-check explicitly: after setup,
// the Source must replay math/rand's stream for the self-check seeds across
// both lazy windows and a full wraparound. selfCheck panics on divergence.
func TestSelfCheck(t *testing.T) {
	setupOnce.Do(setup)
	selfCheck()
}

// TestConcurrentFirstUse has 8 goroutines make their first Source at once.
// Run alone (go test -race -run TestConcurrentFirstUse), it is the process's
// first Seed, so the goroutines race into setup; each must still draw
// math/rand's exact stream, and -race must see no unsynchronized access to
// the recovered table.
func TestConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		errs  = make(chan string, goroutines)
	)
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(seed int64) {
			defer done.Done()
			start.Wait()
			s := New(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < rngLen+rngTap; i++ {
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					errs <- fmt.Sprintf("seed %d output %d: %#x != %#x", seed, i, got, want)
					return
				}
			}
		}(int64(g) * 7919)
	}
	start.Done()
	done.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func BenchmarkSeed(b *testing.B) {
	s := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkSeedStdlib(b *testing.B) {
	s := rand.NewSource(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
