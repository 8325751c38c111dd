package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkPow fails t unless logUniformPow(n, u) has math.Pow's bits and
// LogUniformAge its int.
func checkPow(t *testing.T, n int, u float64) {
	t.Helper()
	want := math.Pow(float64(n), u)
	if got := logUniformPow(n, u); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("logUniformPow(%d, %v) = %v (%#x), math.Pow = %v (%#x)",
			n, u, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got := LogUniformAge(n, u); got != int(want) {
		t.Fatalf("LogUniformAge(%d, %v) = %d, want %d", n, u, got, int(want))
	}
}

// TestLogUniformAgeConcurrent: generators on several goroutines (a sweep's
// workers) build and read the one Log table at once. Run under -race.
func TestLogUniformAgeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n < 1<<12; n++ {
				u := float64(n%97) / 97
				if got, want := LogUniformAge(n+w, u), int(math.Pow(float64(n+w), u)); got != want {
					t.Errorf("LogUniformAge(%d, %v) = %d, want %d", n+w, u, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLogUniformAgeIsPow holds the helper to math.Pow bit for bit over
// every n in [1, 2^17] (both sides of the cached-Log bound), at the edges
// of every branch and at 16 random u each. The generators' streams depend
// on this equality, so a Go release that changes pow fails here first.
func TestLogUniformAgeIsPow(t *testing.T) {
	edges := []float64{
		0,
		5e-324,
		0.5,
		math.Nextafter(0.5, 0),
		math.Nextafter(0.5, 1),
		math.Nextafter(1, 0),
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 1<<17; n++ {
		for _, u := range edges {
			checkPow(t, n, u)
		}
		for i := 0; i < 16; i++ {
			checkPow(t, n, rng.Float64())
		}
	}
}

// FuzzLogUniformAge extends the equality to any n a uint32 holds and any
// u, folded into [0, 1).
func FuzzLogUniformAge(f *testing.F) {
	f.Add(uint32(1), 0.0)
	f.Add(uint32(3), 0.5)
	f.Add(uint32(1<<16), 0.75)
	f.Add(uint32(1<<32-1), 0.999)
	f.Fuzz(func(t *testing.T, n uint32, u float64) {
		u = math.Mod(math.Abs(u), 1)
		if math.IsNaN(u) {
			t.Skip()
		}
		checkPow(t, max(int(n), 1), u)
	})
}
