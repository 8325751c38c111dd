package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// flatLatency is telemetry with degenerate rates: E(j) = 0 for every shard,
// as without telemetry, but a placer built with it keeps the dense select
// over all k candidates.
func flatLatency(k int) StaticTelemetry {
	return StaticTelemetry{Comm: make([]float64, k), Verify: make([]float64, k)}
}

func TestSelectPathFollowsLatencyModel(t *testing.T) {
	tel := StaticTelemetry{Comm: []float64{1, 1}, Verify: []float64{1, 1}}
	for _, c := range []struct {
		name    string
		p       *OptChainPlacer
		support bool
	}{
		{"no telemetry", NewOptChain(OptChainConfig{K: 2}), true},
		{"T2S", NewT2SPlacer(2, 0, DefaultAlpha, 0.1), true},
		{"telemetry", NewOptChain(OptChainConfig{K: 2, Telemetry: tel}), false},
		{"zero rates", NewOptChain(OptChainConfig{K: 2, Telemetry: flatLatency(2)}), false},
	} {
		if support := c.p.tel == nil; support != c.support {
			t.Errorf("%s: decides over the support = %v, want %v", c.name, support, c.support)
		}
	}
}

// none is the bound of a placer without one.
const none = math.MaxInt64

// selectAll hands the same pending vector and shard tallies to the support
// select, to Alg. 1's dense select (alg1Select) and, when no shard can be
// full, to the dense fitness loop, and returns their answers.
func selectAll(normalize bool, bound int64, pendS []uint16, pendV []uint64, counts []int64) []int {
	var t t2sTally
	t.init(len(counts))
	t.pendS, t.pendV = pendS, pendV
	scores := t.dense(counts, normalize)
	got := []int{selectSupport(&t, counts, bound, normalize), alg1Select(scores, counts, bound)}
	if bound == none {
		dp := NewOptChain(OptChainConfig{K: len(counts), Telemetry: flatLatency(len(counts))})
		got = append(got, dp.selectShard(scores, counts))
	}
	return got
}

// The tie rules and the bound, case by case: every select must give the
// stated shard.
func TestSelectTieRules(t *testing.T) {
	const big = uint64(1) << 60 // qToFloat keeps 53 bits: big and big+1 collapse
	for _, c := range []struct {
		name      string
		normalize bool
		bound     int64
		pendS     []uint16
		pendV     []uint64
		counts    []int64
		want      int
	}{
		{"highest score wins over a lighter shard", false, none,
			[]uint16{1, 3}, []uint64{5, 9}, []int64{0, 0, 0, 7}, 3},
		{"equal scores: fewer transactions", false, none,
			[]uint16{0, 2, 3}, []uint64{9, 9, 9}, []int64{4, 0, 2, 3}, 2},
		{"equal scores and counts: lower shard", false, none,
			[]uint16{1, 2, 3}, []uint64{9, 9, 9}, []int64{0, 5, 5, 5}, 1},
		{"one quantum of mass beats every empty shard", false, none,
			[]uint16{3}, []uint64{1}, []int64{0, 0, 0, 1 << 40}, 3},
		{"empty support: least loaded", false, none,
			nil, nil, []int64{3, 2, 1, 2}, 2},
		{"empty support: least loaded, lowest shard", false, none,
			nil, nil, []int64{3, 1, 1, 1}, 1},
		{"empty support, all equal: shard 0", false, none,
			nil, nil, []int64{0, 0, 0, 0}, 0},
		{"masses that collapse in float64 tie, count decides", false, none,
			[]uint16{0, 1}, []uint64{big + 1, big}, []int64{2, 1}, 1},
		{"saturated masses tie, lower shard", false, none,
			[]uint16{1, 2}, []uint64{^uint64(0), ^uint64(0) - 1}, []int64{0, 3, 3}, 1},
		{"normalized: mass per transaction", true, none,
			[]uint16{0, 1}, []uint64{8, 6}, []int64{4, 2}, 1},
		{"normalized: a supported empty shard scores 0 like the rest", true, none,
			[]uint16{0, 2}, []uint64{8, 6}, []int64{0, 0, 3}, 2},
		{"normalized: only empty shards supported, least loaded", true, none,
			[]uint16{1}, []uint64{8}, []int64{2, 0, 1}, 1},
		{"the top scorer is capped", false, 7,
			[]uint16{1, 3}, []uint64{5, 9}, []int64{0, 0, 0, 7}, 1},
		{"every supported shard is capped: least loaded", false, 4,
			[]uint16{0, 1}, []uint64{9, 9}, []int64{4, 5, 2, 3}, 2},
		{"normalized: the scored shard is capped, the empty one falls back", true, 3,
			[]uint16{1, 2}, []uint64{8, 8}, []int64{0, 3, 0}, 0},
		{"every shard is capped: least loaded", true, 4,
			[]uint16{0, 2}, []uint64{9, 9}, []int64{5, 4, 4}, 1},
	} {
		for i, got := range selectAll(c.normalize, c.bound, c.pendS, c.pendV, c.counts) {
			if got != c.want {
				t.Errorf("%s: the %s select gives %d, want %d", c.name, []string{"support", "Alg. 1", "dense"}[i], got, c.want)
			}
		}
	}
}

// Random pending vectors, tallies and bounds, drawn from few distinct values
// so that ties at every level are the rule and not the exception.
func TestSelectSupportMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	masses := []uint64{1, 2, 1 << 31, 1 << 32, 1<<60 - 1, 1 << 60, 1<<60 + 1, ^uint64(0) - 1, ^uint64(0)}
	for round := 0; round < 20000; round++ {
		k := []int{1, 2, 3, 16, 64, 100}[rng.Intn(6)]
		normalize := rng.Intn(4) == 0
		bound := int64(none)
		if rng.Intn(2) == 0 {
			bound = int64(rng.Intn(4))
		}
		counts := make([]int64, k)
		for j := range counts {
			counts[j] = int64(rng.Intn(3))
			if rng.Intn(8) == 0 {
				counts[j] = rng.Int63()
			}
		}
		var pendS []uint16
		var pendV []uint64
		fill := rng.Float64()
		for s := 0; s < k; s++ {
			if rng.Float64() < fill*fill {
				pendS = append(pendS, uint16(s))
				pendV = append(pendV, masses[rng.Intn(len(masses))])
			}
		}
		if got := selectAll(normalize, bound, pendS, pendV, counts); slices.Min(got) != slices.Max(got) {
			t.Fatalf("k=%d normalize=%v bound=%d shards=%v masses=%v counts=%v: support, Alg. 1 and dense selects give %v",
				k, normalize, bound, pendS, pendV, counts, got)
		}
	}
}

// FuzzSelect: for any k <= 64, pending vector, tallies, bound and
// normalisation the support select is Alg. 1's dense select. Each byte of
// data draws one shard's tally (its low bits, or a huge count) and whether
// and with which mass the shard is in the support.
func FuzzSelect(f *testing.F) {
	f.Add(uint8(15), int64(none), false, []byte{0x10, 0x21, 0x32, 0x43})
	f.Add(uint8(3), int64(2), true, []byte{0x81, 0x12, 0xff, 0x02})
	f.Add(uint8(63), int64(1), false, []byte("every shard at the bound"))
	masses := []uint64{1, 2, 1 << 32, 1<<60 - 1, 1 << 60, 1<<60 + 1, ^uint64(0) - 1, ^uint64(0)}
	f.Fuzz(func(t *testing.T, k uint8, bound int64, normalize bool, data []byte) {
		n := int(k)%64 + 1
		counts := make([]int64, n)
		var pendS []uint16
		var pendV []uint64
		for j := range counts {
			var b byte
			if j < len(data) {
				b = data[j]
			}
			counts[j] = int64(b & 3)
			if b&4 != 0 {
				counts[j] = math.MaxInt64 - int64(b)
			}
			if b&8 != 0 {
				pendS = append(pendS, uint16(j))
				pendV = append(pendV, masses[b>>5])
			}
		}
		var tally t2sTally
		tally.init(n)
		tally.pendS, tally.pendV = pendS, pendV
		scores := tally.dense(counts, normalize)
		if got, want := selectSupport(&tally, counts, bound, normalize), alg1Select(scores, counts, bound); got != want {
			t.Fatalf("bound=%d normalize=%v shards=%v masses=%v counts=%v: support select %d, Alg. 1 %d",
				bound, normalize, pendS, pendV, counts, got, want)
		}
	})
}

// sortMerge is the merge the bitmask walk replaced, kept as its oracle: a
// touched flag per shard, the touched shards in arrival order, and an
// insertion sort before the pending vector is written.
type sortMerge struct {
	merge []uint64
	inUse []bool
	order []uint16
}

func (m *sortMerge) accumulate(shards []uint16, vals []uint64, div int64) {
	for i, s := range shards {
		if !m.inUse[s] {
			m.inUse[s] = true
			m.merge[s] = 0
			m.order = append(m.order, s)
		}
		v := vals[i]
		if div > 1 {
			v = qDivRecip(v, ^uint64(0)/uint64(div))
		}
		m.merge[s] = qSatAdd(m.merge[s], v)
	}
}

func (m *sortMerge) finish(scaleQ uint64) (pendS []uint16, pendV []uint64) {
	for i := 1; i < len(m.order); i++ {
		x := m.order[i]
		j := i - 1
		for j >= 0 && m.order[j] > x {
			m.order[j+1] = m.order[j]
			j--
		}
		m.order[j+1] = x
	}
	for _, s := range m.order {
		if v := qMul(m.merge[s], scaleQ); v > 0 {
			pendS = append(pendS, s)
			pendV = append(pendV, v)
		}
		m.inUse[s] = false
	}
	m.order = m.order[:0]
	return pendS, pendV
}

// The bitmask merge at and around the word boundaries: same pending vector
// as the sort-based merge, merge after merge on one tally, with the scratch
// handed back clean each time. A round with one input also goes through
// the one-input path, which must produce the same vector without merging.
func TestBitmaskMergeMatchesSortMerge(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 100, 4096} {
		rng := rand.New(rand.NewSource(int64(k)))
		var tally t2sTally
		tally.init(k)
		if want := (k + 63) / 64; len(tally.touched) != want {
			t.Fatalf("k=%d: %d mask words, want %d", k, len(tally.touched), want)
		}
		var one t2sTally
		one.init(k)
		ref := sortMerge{merge: make([]uint64, k), inUse: make([]bool, k)}
		scaleQ := qOne / 2
		for round := 0; round < 300; round++ {
			inputs := rng.Intn(6) + 1
			for in := inputs - 1; in >= 0; in-- {
				// One input vector: distinct shards, ascending as the slab
				// holds them, the edges of every word among them.
				var shards []uint16
				for _, s := range []int{0, 62, 63, 64, 65, k - 2, k - 1} {
					if s >= 0 && s < k && rng.Intn(3) == 0 {
						shards = append(shards, uint16(s))
					}
				}
				for n := rng.Intn(8); n > 0; n-- {
					shards = append(shards, uint16(rng.Intn(k)))
				}
				slices.Sort(shards)
				shards = slices.Compact(shards)
				vals := make([]uint64, len(shards))
				for i := range vals {
					vals[i] = []uint64{0, 1, 3, qOne / 2, qOne, ^uint64(0)}[rng.Intn(6)]
				}
				div := int64(rng.Intn(40)) // 0 and 1 add directly; both sides of the reciprocal table
				tally.accumulate(shards, vals, div)
				ref.accumulate(shards, vals, div)
				if inputs == 1 {
					one.single(int32(round), shards, vals, div, scaleQ)
				}
			}
			tally.finish(int32(round), scaleQ)
			tally.hasPending = false
			wantS, wantV := ref.finish(scaleQ)
			if !slices.Equal(tally.pendS, wantS) || !slices.Equal(tally.pendV, wantV) {
				t.Fatalf("k=%d round %d: bitmask merge %v %v, sort merge %v %v", k, round, tally.pendS, tally.pendV, wantS, wantV)
			}
			if inputs == 1 && (!slices.Equal(one.pendS, wantS) || !slices.Equal(one.pendV, wantV)) {
				t.Fatalf("k=%d round %d: one-input path %v %v, merge %v %v", k, round, one.pendS, one.pendV, wantS, wantV)
			}
			if i := slices.IndexFunc(tally.merge, func(v uint64) bool { return v != 0 }); i >= 0 {
				t.Fatalf("k=%d round %d: merge[%d] = %d left behind", k, round, i, tally.merge[i])
			}
			if i := slices.IndexFunc(tally.touched, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("k=%d round %d: mask word %d = %#x left behind", k, round, i, tally.touched[i])
			}
		}
	}
}

func TestRecipTableMatchesDivision(t *testing.T) {
	for d := uint64(2); d < 4*uint64(len(qRecipSmall)); d++ {
		if got, want := qRecip(d), ^uint64(0)/d; got != want {
			t.Fatalf("qRecip(%d) = %d, want %d", d, got, want)
		}
	}
}
