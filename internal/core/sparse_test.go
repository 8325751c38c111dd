package core

import (
	"testing"
	"testing/quick"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// The commit path must keep each slab vector sorted by shard with the α
// restart mass inserted at its sorted position, whether or not the chosen
// shard already carries score mass.
func TestCommitInsertsAlphaSorted(t *testing.T) {
	const k = 8
	asn := placement.NewAssignment(k, 16)
	idx := NewT2SIndex(0.5, 0, asn, 16)
	// Coinbase into shard 5: vector is exactly {5: α}.
	idx.Prepare(0, nil)
	idx.Commit(0, 5)
	asn.Place(0, 5)
	if v := idx.vector(0); len(v) != 1 || v[5] != 0.5 {
		t.Fatalf("coinbase vector = %v", v)
	}
	// Child spending node 0, committed to shard 2 (< 5): α entry must land
	// before the inherited shard-5 mass.
	idx.Prepare(1, []int32{0})
	idx.Commit(1, 2)
	asn.Place(1, 2)
	shards, _ := idx.vec(1)
	if len(shards) != 2 || shards[0] != 2 || shards[1] != 5 {
		t.Fatalf("vector entries out of order: %v", shards)
	}
	// Child committed to the shard it already scores: entry count stays,
	// mass adds.
	idx.Prepare(2, []int32{1})
	idx.Commit(2, 5)
	asn.Place(2, 5)
	v := idx.vector(2)
	if len(v) != 2 {
		t.Fatalf("vector = %v", v)
	}
	if v[5] <= 0.5 {
		t.Fatalf("alpha not added to existing entry: %v", v)
	}
}

func TestCommitTruncatesInSlab(t *testing.T) {
	const k = 4
	asn := placement.NewAssignment(k, 16)
	idx := NewT2SIndex(0.5, 1e-2, asn, 16)
	// Build a parent whose vector has one dominant and one tiny entry by
	// chaining: 0 → shard 0, 1 spends 0 → shard 0 (mass concentrates), then
	// 2 spends 1 with commit far away.
	idx.Prepare(0, nil)
	idx.Commit(0, 0)
	asn.Place(0, 0)
	for u := int32(1); u < 10; u++ {
		idx.Prepare(u, []int32{u - 1})
		idx.Commit(u, 0)
		asn.Place(u, 0)
	}
	// After repeated same-shard commits the shard-0 mass dominates; any
	// entry below 1% of it would have been dropped.
	_, vals := idx.vec(9)
	var max uint64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	threshold := qMul(max, qFromFloat(1e-2))
	for _, v := range vals {
		if v < threshold {
			t.Fatalf("entry below truncation threshold survived: %v", vals)
		}
	}
}

// Property: a T2S vector's entries are always non-negative, sorted, and
// deduplicated, for arbitrary placement sequences.
func TestPropertyT2SVectorWellFormed(t *testing.T) {
	f := func(placements []uint8) bool {
		const k = 6
		asn := placement.NewAssignment(k, len(placements)+4)
		idx := NewT2SIndex(0.5, 0, asn, len(placements)+4)
		// Seed two coinbases.
		for u := 0; u < 2; u++ {
			idx.Prepare(int32(u), nil)
			idx.Commit(int32(u), u%k)
			asn.Place(int32(u), u%k)
		}
		for i, p := range placements {
			u := int32(i + 2)
			inputs := []int32{0, u - 1}
			idx.Prepare(u, inputs)
			s := int(p) % k
			idx.Commit(u, s)
			asn.Place(u, s)
			shards, vals := idx.vec(u)
			for i, s := range shards {
				if vals[i] == 0 {
					return false // zero-mass entries must be dropped
				}
				if i > 0 && s <= shards[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestT2SOutCountsDivisorDilutesFanout(t *testing.T) {
	const k = 2
	asn := placement.NewAssignment(k, 8)
	idx := NewT2SIndex(0.5, 0, asn, 8)
	// Node 0: a batch payer with 100 outputs in shard 0.
	// Node 1: a chain tx with 2 outputs in shard 1.
	outs := map[int32]int{0: 100, 1: 2}
	idx.SetOutCounts(func(v int32) int { return outs[v] })
	for u, s := range []int{0, 1} {
		idx.Prepare(int32(u), nil)
		idx.Commit(int32(u), s)
		asn.Place(int32(u), s)
	}
	scores := idx.Prepare(2, []int32{0, 1})
	if scores[0] >= scores[1] {
		t.Fatalf("fan-out source not diluted: scores=%v", scores)
	}
	idx.Commit(2, 1)
	asn.Place(2, 1)
}

// reserve pre-sizes the index for at least `nodes` more transactions, all
// in the open segment, whose committed vectors total at most `entries`
// more slab entries, so the following Prepare/Commit calls allocate
// nothing at all; without it a chunk is allocated whenever the last one
// fills. The open segment's records are allocated whole, and only opening
// the next one (which closes this one, compacting it) allocates.
func reserve(t *T2SIndex, nodes, entries int) {
	if t.nodes == 0 || (t.nodes-1)>>segBits != (t.nodes+nodes-1)>>segBits {
		panic("reserve: the nodes would open a segment")
	}
	// A chunk is left for the next one with fewer than k entries of it
	// unfilled, so each is good for at least size-k+1 entries.
	size := 1 << t.chunkBits
	for spare := entries/(size-t.asn.K()+1) + 1; len(t.slabS) <= t.cur+spare; {
		t.addChunk()
	}
}

// Steady-state Prepare+Commit must not allocate: the slab arena, the
// pending buffer, and the dense score buffers are all reused. reserve
// pre-sizes the arena so even amortized growth is off the table. Every
// transaction declares two outputs and is named by up to three later ones,
// so the measured calls retire vectors, reuse their slots and count late
// references too; the free lists are threaded through the arena itself.
func TestT2SPrepareCommitZeroAllocs(t *testing.T) {
	const k = 16
	asn := placement.NewAssignment(k, 1<<16)
	idx := NewT2SIndex(0.5, DefaultTruncate, asn, 256)
	idx.SetOutCounts(func(txgraph.Node) int { return 2 })
	// Warm up: seed a coinbase plus a short chain so Prepare has real
	// sparse vectors to merge.
	idx.Prepare(0, nil)
	idx.Commit(0, 0)
	asn.Place(0, 0)
	// 512 warm transactions saturate the sparse support (bounded by k) so
	// the pending buffers reach their steady-state capacity before
	// measurement starts.
	next := int32(1)
	for ; next < 512; next++ {
		idx.Prepare(next, []int32{next - 1, next / 2})
		idx.Commit(next, int(next)%k)
		asn.Place(next, int(next)%k)
	}
	const runs = 400
	reserve(idx, runs+8, (runs+8)*(k+1))
	allocs := testing.AllocsPerRun(runs, func() {
		u := next
		next++
		idx.Prepare(u, []int32{u - 1, u / 2})
		idx.Commit(u, int(u)%k)
		asn.Place(u, int(u)%k)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Prepare+Commit allocates %.1f allocs/op, want 0", allocs)
	}
	if txs, refs := idx.Retired(); txs < runs || refs < runs/4 || freeSlots(idx) == 0 {
		t.Fatalf("the measured stream retired %d transactions, named %d of them again and left %d slots free", txs, refs, freeSlots(idx))
	}
}
