package placement

import (
	"math"
	"testing"

	"optchain/internal/txgraph"
)

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(4, 10)
	if a.K() != 4 || a.Len() != 0 {
		t.Fatalf("fresh assignment: k=%d len=%d", a.K(), a.Len())
	}
	a.Place(0, 2)
	a.Place(1, 2)
	a.Place(2, 0)
	if a.ShardOf(0) != 2 || a.ShardOf(2) != 0 {
		t.Fatal("ShardOf wrong")
	}
	if a.Count(2) != 2 || a.Count(0) != 1 || a.Count(1) != 0 {
		t.Fatalf("counts = %v", a.Counts())
	}
	if !a.Placed(2) || a.Placed(3) {
		t.Fatal("Placed wrong")
	}
	// Shard 2 holds 2 of 3 transactions against a mean of 3/4.
	if got, want := a.MaxShare(), 2*4/3.0; got != want {
		t.Fatalf("MaxShare = %v, want %v", got, want)
	}
	if got := NewAssignment(4, 0).MaxShare(); got != 0 {
		t.Fatalf("empty MaxShare = %v, want 0", got)
	}
}

func TestAssignmentPanicsOnMisuse(t *testing.T) {
	a := NewAssignment(2, 4)
	mustPanic(t, func() { a.Place(5, 0) })  // out of order
	mustPanic(t, func() { a.Place(0, 9) })  // bad shard
	mustPanic(t, func() { a.Place(0, -1) }) // bad shard
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestCrossShardDetection(t *testing.T) {
	a := NewAssignment(4, 8)
	a.Place(0, 1)
	a.Place(1, 2)
	// coinbase: never cross
	if a.IsCrossShard(nil, 3) {
		t.Fatal("coinbase flagged cross-shard")
	}
	// both inputs in shard 1, output in 1: same-shard
	a2 := NewAssignment(4, 8)
	a2.Place(0, 1)
	a2.Place(1, 1)
	if a2.IsCrossShard([]txgraph.Node{0, 1}, 1) {
		t.Fatal("same-shard tx flagged cross")
	}
	// output elsewhere: cross
	if !a2.IsCrossShard([]txgraph.Node{0, 1}, 2) {
		t.Fatal("cross tx not flagged")
	}
	// inputs split: cross regardless of output
	if !a.IsCrossShard([]txgraph.Node{0, 1}, 1) {
		t.Fatal("split-input tx not flagged")
	}
}

// The §III-C analytic claim: with random placement and k shards, a 2-input
// 1-output transaction (distinct input txs, random independent shards) is
// cross-shard with probability 1 − 1/k². Paper quotes ~94% at k=4.
func TestRandomCrossTxProbability(t *testing.T) {
	const k = 4
	r := NewRandom(k, 30000)
	var buf [2]txgraph.Node
	cc := CrossCounter{}
	// nodes 0..9999 are "old" txs; nodes 10000.. each spend two of them.
	for u := txgraph.Node(0); u < 10000; u++ {
		r.Place(u, nil)
	}
	for u := txgraph.Node(10000); u < 30000; u++ {
		buf[0] = txgraph.Node(int(u) % 10000)
		buf[1] = txgraph.Node(int(u*7) % 10000)
		if buf[0] == buf[1] {
			buf[1] = (buf[1] + 1) % 10000
		}
		s := r.Place(u, buf[:])
		cc.Observe(r.Assignment(), buf[:], s)
	}
	want := 1 - 1.0/float64(k*k)
	if got := cc.Fraction(); math.Abs(got-want) > 0.02 {
		t.Fatalf("cross fraction = %.4f, want ≈ %.4f", got, want)
	}
}

func TestRandomIsBalancedAndDeterministic(t *testing.T) {
	const k, n = 8, 40000
	r1 := NewRandom(k, n)
	r2 := NewRandom(k, n)
	for u := txgraph.Node(0); u < n; u++ {
		if r1.Place(u, nil) != r2.Place(u, nil) {
			t.Fatal("random placement not deterministic")
		}
	}
	for s := 0; s < k; s++ {
		c := r1.Assignment().Count(s)
		if c < n/k*8/10 || c > n/k*12/10 {
			t.Fatalf("shard %d holds %d of %d", s, c, n)
		}
	}
}

func TestGreedyPrefersInputShard(t *testing.T) {
	g := NewGreedy(4, 1000, 0.1)
	g.Place(0, nil)
	s0 := g.Assignment().ShardOf(0)
	// A spender of tx 0 must land in the same shard.
	s := g.Place(1, []txgraph.Node{0})
	if s != s0 {
		t.Fatalf("greedy placed spender in %d, input in %d", s, s0)
	}
	// Majority coverage wins: two inputs in s0's shard vs one elsewhere.
	g.Place(2, nil) // lands somewhere (least loaded)
	s2 := g.Assignment().ShardOf(2)
	if s2 == s0 {
		t.Skip("least-loaded tie placed tx2 with tx0; coverage scenario moot")
	}
	s = g.Place(3, []txgraph.Node{0, 1, 2})
	if s != s0 {
		t.Fatalf("greedy ignored majority coverage: got %d want %d", s, s0)
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	const k, n = 2, 100
	g := NewGreedy(k, n, 0.1)
	// All txs chained to tx 0 — unconstrained greedy would put everything
	// in one shard.
	g.Place(0, nil)
	for u := txgraph.Node(1); u < n; u++ {
		g.Place(u, []txgraph.Node{0})
	}
	capLimit := int64(float64(n/k) * 11 / 10)
	for s := 0; s < k; s++ {
		if c := g.Assignment().Count(s); c > capLimit+1 {
			t.Fatalf("shard %d has %d txs, cap %d", s, c, capLimit)
		}
	}
}

func TestGreedyFallbackWhenAllFull(t *testing.T) {
	g := NewGreedy(2, 2, 0) // capacity 1 per shard
	g.Place(0, nil)
	g.Place(1, nil)
	// Both shards at capacity; must still place.
	s := g.Place(2, []txgraph.Node{0})
	if s < 0 || s > 1 {
		t.Fatalf("fallback shard = %d", s)
	}
}

func TestMetisReplay(t *testing.T) {
	part := []int32{3, 1, 0, 3}
	m := NewMetisReplay(4, part)
	for u := txgraph.Node(0); u < 4; u++ {
		if got := m.Place(u, nil); got != int(part[u]) {
			t.Fatalf("replay placed %d in %d, want %d", u, got, part[u])
		}
	}
	if m.Name() != "Metis" {
		t.Fatal("name")
	}
}

func TestMetisReplayClampsOutOfRangeParts(t *testing.T) {
	m := NewMetisReplay(2, []int32{5})
	if got := m.Place(0, nil); got != 1 {
		t.Fatalf("clamped shard = %d, want 1", got)
	}
}

func TestCrossCounterFractionEmpty(t *testing.T) {
	cc := CrossCounter{}
	if cc.Fraction() != 0 {
		t.Fatal("empty counter fraction != 0")
	}
}
