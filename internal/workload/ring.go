package workload

import (
	"math/rand"

	"optchain/internal/stats"
)

// outpoint is one spendable output tracked by a scenario generator. Every
// outpoint lives in exactly one ring at a time and is removed when spent,
// so scenarios never double-spend by construction.
type outpoint struct {
	tx  int32
	idx uint32
	val int64
}

// ring is a bounded working set of spendable outpoints, oldest first.
// Pushing past capacity evicts the oldest half in one copy (old coins fall
// out of the wallet's working set and become dust); pop takes the newest
// first — the recency bias every scenario shares with real UTXO traffic.
// Bounded rings are what keep sources streaming: live state is proportional
// to the working-set size, never the stream length.
type ring struct {
	cap int
	buf []outpoint
}

func newRing(cap int) *ring {
	if cap < 2 {
		cap = 2
	}
	return &ring{cap: cap}
}

func (r *ring) len() int { return len(r.buf) }

func (r *ring) push(o outpoint) {
	if len(r.buf) >= r.cap {
		n := copy(r.buf, r.buf[len(r.buf)/2:])
		r.buf = r.buf[:n]
	}
	r.buf = append(r.buf, o)
}

// pop removes and returns the newest outpoint.
func (r *ring) pop() (outpoint, bool) {
	if len(r.buf) == 0 {
		return outpoint{}, false
	}
	o := r.buf[len(r.buf)-1]
	r.buf = r.buf[:len(r.buf)-1]
	return o, true
}

// popBiased removes an outpoint with log-uniform age bias (P(age) ∝ 1/age),
// matching the recency-biased input selection of the calibrated Bitcoin
// generator. Order is preserved so subsequent pops stay recency-biased.
func (r *ring) popBiased(rng *rand.Rand) (outpoint, bool) {
	n := len(r.buf)
	if n == 0 {
		return outpoint{}, false
	}
	age := stats.LogUniformAge(n, rng.Float64())
	j := n - age
	if j < 0 {
		j = 0
	}
	o := r.buf[j]
	copy(r.buf[j:], r.buf[j+1:])
	r.buf = r.buf[:n-1]
	return o, true
}
