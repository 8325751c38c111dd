package shard

import (
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
)

// Under sustained load, adaptive batching must produce near-full blocks
// rather than cutting immediately with whatever is queued.
func TestAdaptiveBatchingFillsBlocks(t *testing.T) {
	sim, _, s := testShard(t, 16, Config{BlockTxs: 100, MaxBlockWait: 2 * time.Second})
	committed := 0
	// Offer a steady stream: 50 items per second for 40 seconds.
	id := chain.TxID(1)
	des.StartTicker(sim, 0, 20*time.Millisecond, "offer", func(sm *des.Simulator) bool {
		s.Enqueue(Item{Tx: id, Bytes: 400, Work: work{done: func(*des.Simulator, error) { committed++ }}})
		id++
		return sm.Now() < 40*time.Second
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	total := int(id) - 1
	if committed != total {
		t.Fatalf("committed %d of %d", committed, total)
	}
	avgBatch := float64(s.CommittedItems) / float64(s.BlocksCut)
	if avgBatch < 50 {
		t.Fatalf("average batch %.0f of %d — batching not amortizing overhead", avgBatch, 100)
	}
}

// A lone item must not wait longer than MaxBlockWait even when the recent
// arrival rate predicts a long fill time.
func TestBatchWaitBounded(t *testing.T) {
	sim, _, s := testShard(t, 8, Config{BlockTxs: 1000, MaxBlockWait: time.Second})
	var at time.Duration
	s.Enqueue(Item{Tx: 1, Bytes: 100, Work: work{done: func(sm *des.Simulator, _ error) { at = sm.Now() }}})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at < time.Second {
		t.Fatalf("lone item committed at %v, before MaxBlockWait", at)
	}
	if at > 10*time.Second {
		t.Fatalf("lone item waited %v", at)
	}
}

func TestDeferralRetriesAcrossBlocks(t *testing.T) {
	sim, _, s := testShard(t, 4, Config{BlockTxs: 4, MaxBlockWait: 100 * time.Millisecond})
	attempts := 0
	var gotErr error
	s.Enqueue(Item{
		Tx:        1,
		Bytes:     100,
		MaxDefers: 3,
		Work: work{execute: func() error {
			attempts++
			if attempts < 3 {
				return chain.ErrMissingUTXO
			}
			return nil
		}, done: func(_ *des.Simulator, err error) { gotErr = err }},
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if gotErr != nil {
		t.Fatalf("eventually-succeeding item reported %v", gotErr)
	}
	if s.DeferredItems != 2 {
		t.Fatalf("deferred = %d, want 2", s.DeferredItems)
	}
}

func TestDeferralExhaustionRejects(t *testing.T) {
	sim, _, s := testShard(t, 4, Config{BlockTxs: 2, MaxBlockWait: 100 * time.Millisecond})
	attempts := 0
	var gotErr error
	s.Enqueue(Item{
		Tx:        1,
		Bytes:     100,
		MaxDefers: 2,
		Work: work{execute: func() error {
			attempts++
			return chain.ErrMissingUTXO
		}, done: func(_ *des.Simulator, err error) { gotErr = err }},
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 { // initial + 2 defers
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if gotErr == nil {
		t.Fatal("exhausted item reported success")
	}
	if s.RejectedItems != 1 {
		t.Fatalf("rejected = %d", s.RejectedItems)
	}
}

// Consensus latency telemetry must move with observed block durations.
func TestConsensusTelemetryUpdates(t *testing.T) {
	sim, _, s := testShard(t, 32, Config{BlockTxs: 10, MaxBlockWait: 50 * time.Millisecond})
	cold := s.RecentConsensusSeconds()
	for i := 0; i < 30; i++ {
		s.Enqueue(Item{Tx: chain.TxID(i + 1), Bytes: 300})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	warm := s.RecentConsensusSeconds()
	if warm == cold {
		t.Fatal("telemetry unchanged after blocks")
	}
	if warm <= 0 || warm > 60 {
		t.Fatalf("warm estimate %v implausible", warm)
	}
}
