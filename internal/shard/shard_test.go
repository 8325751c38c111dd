package shard

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/simnet"
)

// testShard builds a shard with v validators on a fresh simulator.
func testShard(t *testing.T, v int, cfg Config) (*des.Simulator, *simnet.Network, *Shard) {
	t.Helper()
	sim := des.New()
	net := simnet.New(sim, simnet.DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	leader := net.AddNode(rng.Float64(), rng.Float64())
	validators := net.AddRandomNodes(v, rng)
	return sim, net, New(0, sim, net, leader, validators, cfg)
}

func TestBlockCommitsAfterTimer(t *testing.T) {
	sim, _, s := testShard(t, 16, Config{BlockTxs: 100, MaxBlockWait: 2 * time.Second})
	var committedAt time.Duration
	executed := false
	s.Enqueue(Item{
		Tx:    1,
		Bytes: 500,
		Kind:  "same",
		Work: work{execute: func() error {
			executed = true
			return nil
		}, done: func(sim *des.Simulator, err error) {
			if err != nil {
				t.Errorf("unexpected err: %v", err)
			}
			committedAt = sim.Now()
		}},
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("item never executed")
	}
	// The idle timer (2s) must fire before consensus begins.
	if committedAt < 2*time.Second {
		t.Fatalf("committed at %v, before the idle timer", committedAt)
	}
	if s.Height() != 1 || s.CommittedItems != 1 {
		t.Fatalf("height=%d committed=%d", s.Height(), s.CommittedItems)
	}
}

func TestFullBlockStartsImmediately(t *testing.T) {
	sim, _, s := testShard(t, 16, Config{BlockTxs: 10, MaxBlockWait: time.Hour})
	done := 0
	for i := 0; i < 10; i++ {
		s.Enqueue(Item{Tx: chain.TxID(i + 1), Bytes: 300, Work: work{done: func(*des.Simulator, error) { done++ }}})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// With MaxBlockWait at an hour, commitment proves the full-block
	// trigger fired.
	if done != 10 || sim.Now() > time.Hour {
		t.Fatalf("done=%d at %v", done, sim.Now())
	}
}

func TestItemsExecuteInFIFOOrderAcrossBlocks(t *testing.T) {
	sim, _, s := testShard(t, 8, Config{BlockTxs: 5, MaxBlockWait: time.Second})
	var order []int
	for i := 0; i < 17; i++ {
		i := i
		s.Enqueue(Item{
			Tx:    chain.TxID(i + 1),
			Bytes: 100,
			Work: work{execute: func() error {
				order = append(order, i)
				return nil
			}},
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 17 {
		t.Fatalf("executed %d of 17", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not FIFO", order)
		}
	}
	if s.BlocksCut < 4 {
		t.Fatalf("blocks = %d, want >= 4", s.BlocksCut)
	}
}

func TestRejectionPropagatesError(t *testing.T) {
	sim, _, s := testShard(t, 8, Config{BlockTxs: 4, MaxBlockWait: 100 * time.Millisecond})
	wantErr := errors.New("missing utxo")
	var gotErr error
	s.Enqueue(Item{
		Tx:    1,
		Bytes: 100,
		Work:  work{execute: func() error { return wantErr }, done: func(_ *des.Simulator, err error) { gotErr = err }},
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("err = %v", gotErr)
	}
	if s.RejectedItems != 1 || s.CommittedItems != 0 {
		t.Fatalf("rejected=%d committed=%d", s.RejectedItems, s.CommittedItems)
	}
}

func TestConsensusLatencyScalesWithBlockSize(t *testing.T) {
	timeFor := func(bytes int) time.Duration {
		sim, _, s := testShard(t, 64, Config{BlockTxs: 2, MaxBlockWait: 10 * time.Millisecond})
		var at time.Duration
		s.Enqueue(Item{Tx: 1, Bytes: bytes, Work: work{done: func(sim *des.Simulator, _ error) { at = sim.Now() }}})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	small := timeFor(1000)
	big := timeFor(1 << 20)
	if big <= small {
		t.Fatalf("1MB block (%v) not slower than 1KB block (%v)", big, small)
	}
	// A 1 MB block through a depth-7 tree at 2.5 MB/s must cost seconds.
	if big < time.Second {
		t.Fatalf("1MB block consensus %v implausibly fast", big)
	}
	if big > 60*time.Second {
		t.Fatalf("1MB block consensus %v implausibly slow", big)
	}
}

func TestConsensusLatencyGrowsWithCommittee(t *testing.T) {
	timeFor := func(v int) time.Duration {
		sim, _, s := testShard(t, v, Config{BlockTxs: 2, MaxBlockWait: 10 * time.Millisecond})
		var at time.Duration
		s.Enqueue(Item{Tx: 1, Bytes: 1 << 18, Work: work{done: func(sim *des.Simulator, _ error) { at = sim.Now() }}})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if t16, t256 := timeFor(16), timeFor(256); t256 <= t16 {
		t.Fatalf("256 validators (%v) not slower than 16 (%v)", t256, t16)
	}
}

func TestZeroValidatorsDegenerate(t *testing.T) {
	sim, _, s := testShard(t, 0, Config{BlockTxs: 1, MaxBlockWait: time.Second})
	done := false
	s.Enqueue(Item{Tx: 1, Bytes: 100, Work: work{done: func(*des.Simulator, error) { done = true }}})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("solo shard never finalized")
	}
}

func TestQueueDrainsContinuously(t *testing.T) {
	sim, _, s := testShard(t, 16, Config{BlockTxs: 10, MaxBlockWait: 500 * time.Millisecond})
	committed := 0
	for i := 0; i < 95; i++ {
		s.Enqueue(Item{Tx: chain.TxID(i + 1), Bytes: 500, Work: work{done: func(*des.Simulator, error) { committed++ }}})
	}
	if s.QueueLen() == 0 {
		t.Fatal("queue should hold items before running")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if committed != 95 || s.QueueLen() != 0 {
		t.Fatalf("committed=%d queue=%d", committed, s.QueueLen())
	}
	if s.RecentConsensusSeconds() <= 0 {
		t.Fatal("consensus telemetry empty after blocks")
	}
}

func TestMaxBlockBytesCapsBatch(t *testing.T) {
	sim, _, s := testShard(t, 4, Config{
		BlockTxs:      100,
		MaxBlockBytes: 4000,
		MaxBlockWait:  100 * time.Millisecond,
	})
	committed := 0
	for i := 0; i < 10; i++ {
		s.Enqueue(Item{Tx: chain.TxID(i + 1), Bytes: 1500, Work: work{done: func(*des.Simulator, error) { committed++ }}})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if committed != 10 {
		t.Fatalf("committed = %d", committed)
	}
	// 1500-byte items against a 4000-byte cap → at most 2 per block.
	if s.BlocksCut < 5 {
		t.Fatalf("blocks = %d, want >= 5 under the byte cap", s.BlocksCut)
	}
}

func TestColdConsensusEstimatePositive(t *testing.T) {
	_, _, s := testShard(t, 400, Config{})
	est := s.RecentConsensusSeconds()
	if est <= 0 || est > 120 {
		t.Fatalf("cold estimate = %v s", est)
	}
}

// work adapts a pair of closures, either of which may be nil, to Work.
type work struct {
	execute func() error
	done    func(*des.Simulator, error)
}

func (w work) Execute() error {
	if w.execute == nil {
		return nil
	}
	return w.execute()
}

func (w work) Done(sim *des.Simulator, err error) {
	if w.done != nil {
		w.done(sim, err)
	}
}
