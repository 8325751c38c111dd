package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample (unbiased) stddev: sqrt(5/3).
	if !almostEqual(s.Stddev, 1.2909944487358056, 1e-9) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Stddev != 0 {
		t.Fatalf("single-sample stddev = %v, want 0", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2.5); got != 0.5 {
		t.Fatalf("FractionBelow = %v", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Fatalf("FractionBelow(nil) = %v", got)
	}
}

// Property: percentile is within [min, max] and monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		prev := sorted[0]
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < sorted[0]-1e-9 || v > sorted[len(sorted)-1]+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawMeanAndRange(t *testing.T) {
	p := NewPowerLaw(2.0, 50)
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < 1 || v > 50 {
			t.Fatalf("sample %d out of range", v)
		}
		sum += float64(v)
	}
	emp := sum / n
	if want := p.Mean(); !almostEqual(emp, want, 0.05) {
		t.Fatalf("empirical mean %v vs analytic %v", emp, want)
	}
}

func TestPowerLawHeavyHead(t *testing.T) {
	p := NewPowerLaw(2.3, 100)
	rng := rand.New(rand.NewSource(7))
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Sample(rng) == 1 {
			ones++
		}
	}
	if frac := float64(ones) / n; frac < 0.5 {
		t.Fatalf("P(X=1) = %v, expected a heavy head > 0.5 for s=2.3", frac)
	}
}

func TestExpSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += ExpSample(rng, 4)
	}
	if got := sum / n; !almostEqual(got, 0.25, 0.01) {
		t.Fatalf("mean = %v, want 0.25", got)
	}
	if got := ExpSample(rng, 0); got != 0 {
		t.Fatalf("ExpSample(0) = %v", got)
	}
}
