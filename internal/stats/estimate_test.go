package stats

import (
	"math"
	"testing"
)

func TestEWMAFirstObservationDominates(t *testing.T) {
	e := NewEWMA(0.5)
	if e.seen {
		t.Fatal("fresh EWMA claims to have seen samples")
	}
	if got := e.Value(7); got != 7 {
		t.Fatalf("default = %v, want 7", got)
	}
	e.Observe(10)
	if got := e.Value(0); got != 10 {
		t.Fatalf("after first sample = %v, want 10", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 200; i++ {
		e.Observe(5)
	}
	if got := e.Value(0); !almostEqual(got, 5, 1e-9) {
		t.Fatalf("converged value = %v, want 5", got)
	}
}

func TestEWMAWeightsRecent(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0)
	e.Observe(100)
	if got := e.Value(0); got != 50 {
		t.Fatalf("value = %v, want 50", got)
	}
}

func TestEWMABadAlphaClamped(t *testing.T) {
	for _, a := range []float64{0, -1, 2, math.NaN()} {
		e := NewEWMA(a)
		e.Observe(1)
		e.Observe(2)
		v := e.Value(0)
		if math.IsNaN(v) || v < 1 || v > 2 {
			t.Fatalf("alpha %v produced value %v", a, v)
		}
	}
}

func TestRateFromMean(t *testing.T) {
	if got := RateFromMean(0.25); got != 4 {
		t.Fatalf("RateFromMean(0.25) = %v, want 4", got)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := RateFromMean(bad); got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("RateFromMean(%v) = %v, want large positive", bad, got)
		}
	}
}

func TestVerificationRateScalesWithQueue(t *testing.T) {
	empty := VerificationRate(2.0, 0, 2000)
	full := VerificationRate(2.0, 10000, 2000)
	if full >= empty {
		t.Fatalf("longer queue should slow the rate: empty=%v full=%v", empty, full)
	}
	// Empty queue: one consensus round, rate = 1/2s.
	if !almostEqual(empty, 0.5, 1e-9) {
		t.Fatalf("empty-queue rate = %v, want 0.5", empty)
	}
	// 10000 queued at 2000/block → 6 rounds → mean 12s.
	if !almostEqual(full, 1.0/12, 1e-9) {
		t.Fatalf("full-queue rate = %v, want %v", full, 1.0/12)
	}
}

func TestVerificationRateDegenerateInputs(t *testing.T) {
	if got := VerificationRate(0, 5, 0); got <= 0 || math.IsNaN(got) {
		t.Fatalf("degenerate inputs produced %v", got)
	}
}
