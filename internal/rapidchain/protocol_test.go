package rapidchain

import (
	"math/rand"
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/shard"
	"optchain/internal/simnet"
)

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
	h := &harness{sim: des.New(), placed: make(map[chain.TxID]int)}
	h.net = simnet.New(h.sim)
	rng := rand.New(rand.NewSource(13))
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
	out := h.submit(mkTx(1, nil, 100), 0)
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.Cross {
		t.Fatalf("outcome = %+v", out)
	}
	if !h.shards[0].Ledger().Committed(1) {
		t.Fatal("not committed")
	}
}

func TestYankMovesUTXOToOutputShard(t *testing.T) {
	h := newHarness(t, 2)
	a := h.submit(mkTx(1, nil, 100), 0)
	var got *outcome
	h.sim.Schedule(10*time.Second, "child", func(*des.Simulator) {
		child := mkTx(2, []chain.Outpoint{{Tx: 1, Index: 0}}, 95)
		h.placed[child.ID] = 1
		got = h.submit(child, 1)
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.OK {
		t.Fatal("parent failed")
	}
	if !got.OK || !got.Cross {
		t.Fatalf("child outcome = %+v", got)
	}
	if h.shards[0].Ledger().HasUTXO(chain.Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("yanked UTXO still at home shard")
	}
	if !h.shards[1].Ledger().Committed(2) {
		t.Fatal("child not committed at output shard")
	}
	if h.proto.CrossShard != 1 || h.proto.SameShard != 1 {
		t.Fatalf("counters cross=%d same=%d", h.proto.CrossShard, h.proto.SameShard)
	}
}

func TestYankRejectionAbortsAndRestores(t *testing.T) {
	h := newHarness(t, 3)
	a := h.submit(mkTx(1, nil, 100), 0)
	var got *outcome
	h.sim.Schedule(10*time.Second, "child", func(*des.Simulator) {
		// One good input at shard 0, one missing input at shard 1.
		child := mkTx(3, []chain.Outpoint{{Tx: 1, Index: 0}, {Tx: 42, Index: 0}}, 10)
		h.placed[child.ID] = 2
		h.placed[42] = 1
		got = h.submit(child, 2)
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
	// The yanked UTXO must be restored, with its value.
	op := chain.Outpoint{Tx: 1, Index: 0}
	if !h.shards[0].Ledger().HasUTXO(op) {
		t.Fatal("aborted yank did not restore the UTXO")
	}
	if v, ok := h.shards[0].Ledger().OutputValue(op); !ok || v != 100 {
		t.Fatalf("restored value = %d, want 100", v)
	}
}

func TestConflictingYanksSingleWinner(t *testing.T) {
	h := newHarness(t, 2)
	h.submit(mkTx(1, nil, 100), 0)
	okCount := 0
	h.sim.Schedule(10*time.Second, "spenders", func(*des.Simulator) {
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
