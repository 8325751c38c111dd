// Package placement defines the transaction-to-shard placement interface
// (§III-C) and implements the paper's baseline strategies: OmniLedger's
// hash-based random placement, the Greedy heuristic of §IV-B, and a replay
// of an offline Metis k-way partition. The paper's own algorithm (T2S and
// full OptChain) lives in internal/core, behind the same interface.
package placement

import (
	"fmt"
	"slices"

	"optchain/internal/chain"
	"optchain/internal/txgraph"
)

// Placer decides which shard each arriving transaction is submitted to.
// Place is invoked exactly once per transaction, in stream order, with the
// transaction's deduplicated input transactions. Implementations must
// record their own decision (Assignment does this) so later lookups of
// input shards resolve.
type Placer interface {
	// Place returns the shard in [0, K) for transaction u.
	Place(u txgraph.Node, inputs []txgraph.Node) int
	// Assignment exposes the decisions made so far.
	Assignment() *Assignment
	// Name identifies the strategy in reports.
	Name() string
}

// Assignment records which shard each transaction was placed into, 2 bytes
// a decision.
type Assignment struct {
	k      int
	shards []uint16
	counts []int64
}

// NewAssignment creates an empty assignment over k shards with a capacity
// hint of n transactions. More than MaxShards shards do not fit the 2-byte
// shard column; callers reject such a count before building one.
func NewAssignment(k, n int) *Assignment {
	if k > MaxShards {
		panic(fmt.Sprintf("placement: %d shards exceed the 2-byte shard column's limit of %d", k, MaxShards))
	}
	if k < 1 {
		k = 1
	}
	if n < 0 {
		n = 0
	}
	return &Assignment{
		k:      k,
		shards: make([]uint16, 0, n),
		counts: make([]int64, k),
	}
}

// K returns the number of shards.
func (a *Assignment) K() int { return a.k }

// Len returns the number of placed transactions.
func (a *Assignment) Len() int { return len(a.shards) }

// Bytes reports the heap the assignment's columns hold, from their
// capacities.
func (a *Assignment) Bytes() int64 { return 2*int64(cap(a.shards)) + 8*int64(cap(a.counts)) }

// Place records transaction u in shard s. Transactions must be placed in
// order (u equal to Len()); this catches protocol misuse early.
//
//optchain:hotpath one call per stream transaction; growth is amortized.
func (a *Assignment) Place(u txgraph.Node, s int) {
	if int(u) != len(a.shards) {
		panic(fmt.Sprintf("placement: out-of-order placement of %d (have %d)", u, len(a.shards)))
	}
	if s < 0 || s >= a.k {
		panic(fmt.Sprintf("placement: shard %d out of range [0,%d)", s, a.k))
	}
	a.shards = append(a.shards, uint16(s))
	a.counts[s]++
}

// ShardOf returns the shard of a placed transaction.
func (a *Assignment) ShardOf(v txgraph.Node) int { return int(a.shards[v]) }

// Placed reports whether v has been placed.
func (a *Assignment) Placed(v txgraph.Node) bool { return int(v) < len(a.shards) }

// Count returns the number of transactions in shard s.
func (a *Assignment) Count(s int) int64 { return a.counts[s] }

// CountsView returns the live per-shard tally backing the assignment. The
// returned slice is owned by the Assignment: callers must treat it as
// read-only. It exists so per-transaction argmax scans avoid k accessor
// calls (and their bounds checks) on the placement hot path.
func (a *Assignment) CountsView() []int64 { return a.counts }

// CapacityBound computes the per-shard capacity (1+eps)·n/k used by the
// capacity-bounded strategies (§IV-B). The ratio is computed in floating
// point before scaling — truncating n/k first would under-size the bound
// whenever n is not divisible by k.
func CapacityBound(n, k int, eps float64) int64 {
	if k < 1 {
		k = 1
	}
	capPerShard := int64(float64(n) / float64(k) * (1 + eps))
	if capPerShard < 1 {
		capPerShard = 1
	}
	return capPerShard
}

// Capacity is the online form of CapacityBound: the bound over the larger
// of the stream-length hint and the transactions placed so far plus one.
// While the hint covers the stream it is the hint's bound, unchanged; past
// it, or with no hint at all, the bound grows with the stream instead of
// pinning every shard at its hint share (which makes every later decision
// the least-loaded fallback).
type Capacity struct {
	hint, k int
	eps     float64
	bound   int64 // the hint's bound
}

// NewCapacity returns the bound for k shards, a hint of n transactions and
// imbalance tolerance eps.
func NewCapacity(n, k int, eps float64) Capacity {
	return Capacity{hint: n, k: k, eps: eps, bound: CapacityBound(n, k, eps)}
}

// Bound returns the per-shard capacity for the next transaction when placed
// transactions precede it.
//
//optchain:hotpath one call per stream transaction.
func (c Capacity) Bound(placed int) int64 {
	if placed < c.hint {
		return c.bound
	}
	return CapacityBound(placed+1, c.k, c.eps)
}

// MaxShare returns the largest shard's tally over the mean tally: 1 is
// perfectly balanced, k is everything in one shard, 0 is nothing placed.
func (a *Assignment) MaxShare() float64 {
	if len(a.shards) == 0 {
		return 0
	}
	return float64(slices.Max(a.counts)) * float64(a.k) / float64(len(a.shards))
}

// Counts returns a copy of all shard sizes.
func (a *Assignment) Counts() []int64 {
	out := make([]int64, a.k)
	copy(out, a.counts)
	return out
}

// IsCrossShard reports whether transaction u placed in shard s with the
// given inputs is a cross-shard transaction: Sin(u) ≠ {S(u)} (§IV-A).
// Coinbase transactions (no inputs) are never cross-shard.
func (a *Assignment) IsCrossShard(inputs []txgraph.Node, s int) bool {
	for _, v := range inputs {
		if int(a.shards[v]) != s {
			return true
		}
	}
	return false
}

// CrossCounter tallies cross-shard statistics as transactions stream
// through a placer.
type CrossCounter struct {
	Total int64
	Cross int64
}

// Observe records one placement decision.
func (c *CrossCounter) Observe(a *Assignment, inputs []txgraph.Node, s int) {
	c.Total++
	if a.IsCrossShard(inputs, s) {
		c.Cross++
	}
}

// Fraction returns the cross-shard fraction in [0,1].
func (c *CrossCounter) Fraction() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Cross) / float64(c.Total)
}

// Random is OmniLedger's default placement: shard = hash(txid) mod k.
type Random struct {
	a *Assignment
}

// NewRandom returns a hash-based random placer for k shards and n expected
// transactions.
func NewRandom(k, n int) *Random {
	return &Random{a: NewAssignment(k, n)}
}

// Place implements Placer.
//
//optchain:hotpath one call per stream transaction.
func (r *Random) Place(u txgraph.Node, inputs []txgraph.Node) int {
	s := int(chain.TxID(int64(u)+1).Hash() % uint64(r.a.k))
	r.a.Place(u, s)
	return s
}

// Assignment implements Placer.
func (r *Random) Assignment() *Assignment { return r.a }

// Name implements Placer.
func (r *Random) Name() string { return "OmniLedger" }

// Greedy places a transaction in the shard holding the most of its inputs,
// subject to the capacity bound (1+eps)·⌊n/k⌋ from §IV-B (see Capacity).
// Note: the paper's text literally says to *maximize* f(u,j) = |Sin(u)\Sj|,
// which would maximize uncovered inputs and contradicts its own description
// ("the greedy solution will help reduce the number of cross-TXs"); we
// implement the evident intent of maximizing coverage.
type Greedy struct {
	a        *Assignment
	cap      Capacity
	coverage []int // reusable per-Place input-coverage tally
}

// NewGreedy returns a greedy placer for k shards over an expected stream of
// n transactions with imbalance tolerance eps (paper: 0.1).
func NewGreedy(k, n int, eps float64) *Greedy {
	a := NewAssignment(k, n)
	return &Greedy{
		a:        a,
		cap:      NewCapacity(n, k, eps),
		coverage: make([]int, a.k),
	}
}

// Place implements Placer. One fused pass tracks the capacity-eligible
// argmax and the least-loaded fallback together.
//
//optchain:hotpath the OmniLedger-greedy argmax scan.
func (g *Greedy) Place(u txgraph.Node, inputs []txgraph.Node) int {
	for j := range g.coverage {
		g.coverage[j] = 0
	}
	for _, v := range inputs {
		g.coverage[g.a.shards[v]]++
	}
	bound := g.cap.Bound(len(g.a.shards))
	best := -1
	bestCov := 0
	var bestCount int64
	least := 0
	leastCount := g.a.counts[0]
	for j, c := range g.a.counts {
		if c < leastCount {
			least, leastCount = j, c
		}
		if c >= bound {
			continue
		}
		if best == -1 || g.coverage[j] > bestCov ||
			(g.coverage[j] == bestCov && c < bestCount) {
			best, bestCov, bestCount = j, g.coverage[j], c
		}
	}
	if best == -1 {
		// Every shard is at capacity (possible only when rounding leaves
		// the bound below the mean); fall back to the least loaded.
		best = least
	}
	g.a.Place(u, best)
	return best
}

// Assignment implements Placer.
func (g *Greedy) Assignment() *Assignment { return g.a }

// Name implements Placer.
func (g *Greedy) Name() string { return "Greedy" }

// MetisReplay places transactions according to a precomputed offline
// partition (the paper's Metis k-way baseline, §V-A: "we first input the
// whole TaN network to get its Metis solution and then use the resulting
// partitions to determine S(u)").
type MetisReplay struct {
	a    *Assignment
	part []int32
}

// NewMetisReplay wraps a partition vector (one entry per transaction).
func NewMetisReplay(k int, part []int32) *MetisReplay {
	return &MetisReplay{a: NewAssignment(k, len(part)), part: part}
}

// Place implements Placer.
func (m *MetisReplay) Place(u txgraph.Node, inputs []txgraph.Node) int {
	s := int(m.part[u])
	if s >= m.a.k {
		s = m.a.k - 1
	}
	m.a.Place(u, s)
	return s
}

// Assignment implements Placer.
func (m *MetisReplay) Assignment() *Assignment { return m.a }

// Name implements Placer.
func (m *MetisReplay) Name() string { return "Metis" }

// Compile-time interface compliance checks.
var (
	_ Placer = (*Random)(nil)
	_ Placer = (*Greedy)(nil)
	_ Placer = (*MetisReplay)(nil)
)
