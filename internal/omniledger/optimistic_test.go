package omniledger

import (
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
)

// newOptimisticHarness mirrors newHarness with the paper-regime protocol.
func newOptimisticHarness(t *testing.T, numShards int) *harness {
	t.Helper()
	h := newHarness(t, numShards)
	h.proto.Optimistic = true
	return h
}

// In optimistic mode, a child submitted at the same instant as its parent
// (replay-order race) must still commit: the child's spend registers as
// pending and resolves when the parent's outputs land.
func TestOptimisticChildBeforeParentCommits(t *testing.T) {
	h := newOptimisticHarness(t, 2)
	parent := mkTx(1, nil, 100)
	child := mkTx(2, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
	parentOut := h.submit(parent, 0)
	childOut := h.submit(child, 0) // same instant — no waiting
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !parentOut.OK || !childOut.OK {
		t.Fatalf("outcomes parent=%+v child=%+v", parentOut, childOut)
	}
	if h.shards[0].Ledger().PendingSpends() != 0 {
		t.Fatal("pending claims remain")
	}
	if h.shards[0].Ledger().HasUTXO(chain.Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("spent parent output still live")
	}
}

// The same race across shards: the child's lock lands at the parent's
// shard before the parent commits there.
func TestOptimisticCrossShardRace(t *testing.T) {
	h := newOptimisticHarness(t, 2)
	parent := mkTx(1, nil, 100)
	child := mkTx(2, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
	h.placed[parent.ID] = 0
	h.placed[child.ID] = 1
	pOut := h.submit(parent, 0)
	cOut := h.submit(child, 1)
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !pOut.OK || !cOut.OK {
		t.Fatalf("outcomes parent=%+v child=%+v", pOut, cOut)
	}
	if !cOut.Cross {
		t.Fatal("child should be cross-shard")
	}
	if !h.shards[1].Ledger().Committed(2) {
		t.Fatal("child missing from output shard")
	}
}

// Optimistic mode must still reject genuine double spends: two conflicting
// spends of one output cannot both commit, regardless of ordering.
func TestOptimisticDoubleSpendStillRejected(t *testing.T) {
	h := newOptimisticHarness(t, 2)
	h.submit(mkTx(1, nil, 100), 0)
	okCount := 0
	for id := chain.TxID(10); id <= 11; id++ {
		tx := mkTx(id, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
		h.placed[tx.ID] = 1
		h.proto.Submit(h.client, tx, 1, func(_ *des.Simulator, ok bool) {
			if ok {
				okCount++
			}
		})
	}
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 conflicting spends committed, want exactly 1", okCount)
	}
	if h.proto.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", h.proto.Aborts)
	}
}

// An aborted optimistic cross transaction must release its pending claims
// so a later retry (same tx id, same outpoints) succeeds.
func TestOptimisticAbortReleasesClaims(t *testing.T) {
	h := newOptimisticHarness(t, 2)
	h.submit(mkTx(1, nil, 100), 0)
	// Conflict pair: 10 wins, 11 aborts.
	var lost chain.TxID
	for id := chain.TxID(10); id <= 11; id++ {
		id := id
		tx := mkTx(id, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
		h.placed[id] = 1
		h.proto.Submit(h.client, tx, 1, func(_ *des.Simulator, ok bool) {
			if !ok {
				lost = id
			}
		})
	}
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("no loser recorded")
	}
	if h.shards[0].Ledger().PendingSpends() != 0 {
		t.Fatal("loser's claim not released")
	}
}

// Long same-shard chains must pipeline through few blocks — the property
// that gives good placement its throughput advantage.
func TestOptimisticChainPipelinesWithinBlocks(t *testing.T) {
	h := newOptimisticHarness(t, 2)
	const depth = 40
	h.submit(mkTx(1, nil, 100), 0)
	committed := 0
	var last time.Duration
	for id := chain.TxID(2); id <= depth; id++ {
		tx := mkTx(id, []chain.Outpoint{{Tx: id - 1, Index: 0}}, 90)
		h.placed[id] = 0
		h.proto.Submit(h.client, tx, 0, func(s *des.Simulator, ok bool) {
			if ok {
				committed++
				last = s.Now()
			}
		})
	}
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if committed != depth-1 {
		t.Fatalf("committed %d of %d", committed, depth-1)
	}
	// A 40-deep chain serialized one-link-per-block would need 40 block
	// rounds (> 40 s with 1 s consensus); pipelined it needs a handful.
	if last > 30*time.Second {
		t.Fatalf("chain took %v — not pipelining within blocks", last)
	}
}
