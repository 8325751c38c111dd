package core

import (
	"math/rand"
	"slices"
	"testing"
)

// FlatLatency answers 0 like ZeroLatency but is not it, so a placer built
// with it keeps the dense select over all k candidates: the oracle the
// support select is held to (exported for select_stream_test.go).
type FlatLatency struct{}

func (FlatLatency) ProofLatency(int, []int) float64 { return 0 }

func TestSelectPathFollowsLatencyModel(t *testing.T) {
	tel := StaticTelemetry{Comm: []float64{1, 1}, Verify: []float64{1, 1}}
	for _, c := range []struct {
		name    string
		cfg     OptChainConfig
		uniform bool
	}{
		{"no model", OptChainConfig{K: 2}, true},
		{"ZeroLatency", OptChainConfig{K: 2, Latency: ZeroLatency{}}, true},
		{"normalized", OptChainConfig{K: 2, NormalizeScores: true}, true},
		{"FastL2S", OptChainConfig{K: 2, Latency: FastL2S{Tel: tel}}, false},
		{"ExactL2S", OptChainConfig{K: 2, Latency: ExactL2S{Tel: tel}}, false},
		{"a model outside the package", OptChainConfig{K: 2, Latency: FlatLatency{}}, false},
	} {
		p := NewOptChain(c.cfg)
		if p.uniform != c.uniform {
			t.Errorf("%s: uniform = %v, want %v", c.name, p.uniform, c.uniform)
		}
		// The support select reads no E(j) buffer; the dense one needs it.
		if (p.latBuf == nil) != c.uniform {
			t.Errorf("%s: latBuf %v", c.name, p.latBuf)
		}
	}
}

// selectBoth hands the same pending vector and shard tallies to the support
// select and to the dense select and returns both answers.
func selectBoth(k int, normalize bool, pendS []uint16, pendV []uint64, counts []int64) (support, dense int) {
	sp := NewOptChain(OptChainConfig{K: k, NormalizeScores: normalize})
	dp := NewOptChain(OptChainConfig{K: k, NormalizeScores: normalize, Latency: FlatLatency{}})
	for _, p := range []*OptChainPlacer{sp, dp} {
		p.idx.tally.pendS = append(p.idx.tally.pendS[:0], pendS...)
		p.idx.tally.pendV = append(p.idx.tally.pendV[:0], pendV...)
	}
	scores := dp.idx.tally.dense(counts, normalize)
	return sp.selectSupport(counts), dp.selectShard(scores, counts, nil, dp.latBuf)
}

// The tie rules, case by case: both selects must give the stated shard.
func TestSelectTieRules(t *testing.T) {
	const big = uint64(1) << 60 // qToFloat keeps 53 bits: big and big+1 collapse
	for _, c := range []struct {
		name      string
		normalize bool
		pendS     []uint16
		pendV     []uint64
		counts    []int64
		want      int
	}{
		{"highest score wins over a lighter shard", false,
			[]uint16{1, 3}, []uint64{5, 9}, []int64{0, 0, 0, 7}, 3},
		{"equal scores: fewer transactions", false,
			[]uint16{0, 2, 3}, []uint64{9, 9, 9}, []int64{4, 0, 2, 3}, 2},
		{"equal scores and counts: lower shard", false,
			[]uint16{1, 2, 3}, []uint64{9, 9, 9}, []int64{0, 5, 5, 5}, 1},
		{"one quantum of mass beats every empty shard", false,
			[]uint16{3}, []uint64{1}, []int64{0, 0, 0, 1 << 40}, 3},
		{"empty support: least loaded", false,
			nil, nil, []int64{3, 2, 1, 2}, 2},
		{"empty support: least loaded, lowest shard", false,
			nil, nil, []int64{3, 1, 1, 1}, 1},
		{"empty support, all equal: shard 0", false,
			nil, nil, []int64{0, 0, 0, 0}, 0},
		{"masses that collapse in float64 tie, count decides", false,
			[]uint16{0, 1}, []uint64{big + 1, big}, []int64{2, 1}, 1},
		{"saturated masses tie, lower shard", false,
			[]uint16{1, 2}, []uint64{^uint64(0), ^uint64(0) - 1}, []int64{0, 3, 3}, 1},
		{"normalized: mass per transaction", true,
			[]uint16{0, 1}, []uint64{8, 6}, []int64{4, 2}, 1},
		{"normalized: a supported empty shard scores 0 like the rest", true,
			[]uint16{0, 2}, []uint64{8, 6}, []int64{0, 0, 3}, 2},
		{"normalized: only empty shards supported, least loaded", true,
			[]uint16{1}, []uint64{8}, []int64{2, 0, 1}, 1},
	} {
		support, dense := selectBoth(len(c.counts), c.normalize, c.pendS, c.pendV, c.counts)
		if support != c.want || dense != c.want {
			t.Errorf("%s: support select %d, dense select %d, want %d", c.name, support, dense, c.want)
		}
	}
}

// Random pending vectors and tallies, drawn from few distinct values so that
// ties at every level are the rule and not the exception.
func TestSelectSupportMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	masses := []uint64{1, 2, 1 << 31, 1 << 32, 1<<60 - 1, 1 << 60, 1<<60 + 1, ^uint64(0) - 1, ^uint64(0)}
	for round := 0; round < 20000; round++ {
		k := []int{1, 2, 3, 16, 64, 100}[rng.Intn(6)]
		normalize := rng.Intn(4) == 0
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
		if support, dense := selectBoth(k, normalize, pendS, pendV, counts); support != dense {
			t.Fatalf("k=%d normalize=%v shards=%v masses=%v counts=%v: support select %d, dense select %d",
				k, normalize, pendS, pendV, counts, support, dense)
		}
	}
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
