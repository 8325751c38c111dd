package omniledger

import (
	"math/rand"
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/shard"
	"optchain/internal/simnet"
)

// harness wires a small sharded system with a manual placement map.
type harness struct {
	sim    *des.Simulator
	net    *simnet.Network
	shards []*shard.Shard
	proto  *Protocol
	client simnet.NodeID
	placed map[chain.TxID]int
}

func newHarness(t *testing.T, numShards int) *harness {
	t.Helper()
	h := &harness{
		sim:    des.New(),
		placed: make(map[chain.TxID]int),
	}
	h.net = simnet.New(h.sim, simnet.DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	cfg := shard.Config{BlockTxs: 4, MaxBlockWait: 200 * time.Millisecond}
	for i := 0; i < numShards; i++ {
		leader := h.net.AddNode(rng.Float64(), rng.Float64())
		validators := h.net.AddRandomNodes(4, rng)
		h.shards = append(h.shards, shard.New(i, h.sim, h.net, leader, validators, cfg))
	}
	h.client = h.net.AddNode(rng.Float64(), rng.Float64())
	h.proto = New(h.sim, h.net, h.shards, func(id chain.TxID) int { return h.placed[id] })
	return h
}

// submit places and submits a transaction, returning a pointer that fills
// with the outcome once the simulation runs.
func (h *harness) submit(tx *chain.Transaction, outShard int) *outcome {
	h.placed[tx.ID] = outShard
	out := &outcome{}
	crossBefore := h.proto.CrossShard
	h.proto.Submit(h.client, tx, outShard, func(_ *des.Simulator, ok bool) { out.OK = ok })
	out.Cross = h.proto.CrossShard > crossBefore
	return out
}

// outcome is what a test sees of one submission: whether it committed, and
// whether the protocol counted it as cross-shard.
type outcome struct{ OK, Cross bool }

func mkTx(id chain.TxID, inputs []chain.Outpoint, values ...int64) *chain.Transaction {
	outs := make([]chain.Output, len(values))
	for i, v := range values {
		outs[i] = chain.Output{Value: v}
	}
	return &chain.Transaction{ID: id, Inputs: inputs, Outputs: outs}
}

func TestSameShardCommit(t *testing.T) {
	h := newHarness(t, 2)
	cb := mkTx(1, nil, 100)
	out1 := h.submit(cb, 0)
	spend := mkTx(2, []chain.Outpoint{{Tx: 1, Index: 0}}, 60, 39)
	out2 := h.submit(spend, 0)
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !out1.OK || out1.Cross {
		t.Fatalf("coinbase outcome = %+v", out1)
	}
	if !out2.OK || out2.Cross {
		t.Fatalf("same-shard spend outcome = %+v", out2)
	}
	if !h.shards[0].Ledger().Committed(2) {
		t.Fatal("spend not on ledger")
	}
	if h.proto.SameShard != 2 || h.proto.CrossShard != 0 {
		t.Fatalf("counters same=%d cross=%d", h.proto.SameShard, h.proto.CrossShard)
	}
}

func TestCrossShardCommitMovesValue(t *testing.T) {
	h := newHarness(t, 3)
	// Parents on shards 0 and 1; child commits on shard 2.
	a := h.submit(mkTx(1, nil, 100), 0)
	b := h.submit(mkTx(2, nil, 50), 1)
	child := mkTx(3, []chain.Outpoint{{Tx: 1, Index: 0}, {Tx: 2, Index: 0}}, 140)
	// Delay the child so parents are committed first.
	h.sim.Schedule(10*time.Second, "issue-child", func(*des.Simulator) {
		h.placed[child.ID] = 2
		h.proto.Submit(h.client, child, 2, func(_ *des.Simulator, ok bool) {
			if !ok {
				t.Errorf("child did not commit")
			}
		})
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.OK || !b.OK {
		t.Fatalf("parents failed: %+v %+v", a, b)
	}
	if !h.shards[2].Ledger().Committed(3) {
		t.Fatal("child not committed on output shard")
	}
	// Inputs must be consumed at their home shards.
	if h.shards[0].Ledger().HasUTXO(chain.Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("input at shard 0 still live")
	}
	if h.shards[1].Ledger().HasUTXO(chain.Outpoint{Tx: 2, Index: 0}) {
		t.Fatal("input at shard 1 still live")
	}
	// New output lives at shard 2.
	if !h.shards[2].Ledger().HasUTXO(chain.Outpoint{Tx: 3, Index: 0}) {
		t.Fatal("child output missing at shard 2")
	}
	if h.proto.CrossShard != 1 {
		t.Fatalf("cross counter = %d", h.proto.CrossShard)
	}
}

func TestCrossShardRejectionAbortsAndUnlocks(t *testing.T) {
	h := newHarness(t, 2)
	a := h.submit(mkTx(1, nil, 100), 0)
	// Child spends a UTXO on shard 0 and a NONEXISTENT one on shard 1.
	child := mkTx(3, []chain.Outpoint{{Tx: 1, Index: 0}, {Tx: 99, Index: 0}}, 10)
	var got *outcome
	h.sim.Schedule(10*time.Second, "issue-child", func(*des.Simulator) {
		h.placed[child.ID] = 1
		h.placed[99] = 1
		got = h.submit(child, 1)
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.OK {
		t.Fatal("parent failed")
	}
	if got.OK {
		t.Fatal("child with missing input committed")
	}
	if h.proto.Aborts != 1 {
		t.Fatalf("aborts = %d", h.proto.Aborts)
	}
	// The abort must have released the lock on shard 0's UTXO.
	if !h.shards[0].Ledger().HasUTXO(chain.Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("aborted input still locked/spent")
	}
	if h.shards[1].Ledger().Committed(3) {
		t.Fatal("rejected child on ledger")
	}
}

func TestCrossLatencyExceedsSameShard(t *testing.T) {
	// Same-shard and cross-shard spends of equal-aged parents: the cross
	// one must take strictly longer (two block rounds + extra RTTs).
	h := newHarness(t, 2)
	h.submit(mkTx(1, nil, 100), 0)
	h.submit(mkTx(2, nil, 100), 1)
	var sameAt, crossAt time.Duration
	issue := func() {
		same := mkTx(3, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
		h.placed[same.ID] = 0
		h.proto.Submit(h.client, same, 0, func(s *des.Simulator, ok bool) {
			if !ok {
				t.Error("same-shard failed")
			}
			sameAt = s.Now()
		})
		cross := mkTx(4, []chain.Outpoint{{Tx: 2, Index: 0}}, 90)
		h.placed[cross.ID] = 0
		h.proto.Submit(h.client, cross, 0, func(s *des.Simulator, ok bool) {
			if !ok {
				t.Error("cross-shard failed")
			}
			crossAt = s.Now()
		})
	}
	start := 10 * time.Second
	h.sim.Schedule(start, "issue", func(*des.Simulator) { issue() })
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sameAt == 0 || crossAt == 0 {
		t.Fatal("transactions did not commit")
	}
	if crossAt-start <= sameAt-start {
		t.Fatalf("cross latency %v not above same-shard %v", crossAt-start, sameAt-start)
	}
}

func TestDoubleSpendAcrossClientsRejected(t *testing.T) {
	h := newHarness(t, 2)
	h.submit(mkTx(1, nil, 100), 0)
	okCount := 0
	h.sim.Schedule(10*time.Second, "spenders", func(*des.Simulator) {
		// Two conflicting spends of the same UTXO, both cross-shard.
		for id := chain.TxID(10); id <= 11; id++ {
			tx := mkTx(id, []chain.Outpoint{{Tx: 1, Index: 0}}, 90)
			h.placed[tx.ID] = 1
			h.proto.Submit(h.client, tx, 1, func(_ *des.Simulator, ok bool) {
				if ok {
					okCount++
				}
			})
		}
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 conflicting spends committed, want exactly 1", okCount)
	}
}
