package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"optchain/internal/shard"
	"optchain/internal/workload"
)

// mixIDsSpec is the benchmark's mix-ids stream (benchmark/run.go).
const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// fingerprint hashes the result fields a speed-only change must not move,
// by bit pattern: one ULP of drift in any of them changes the hash.
func fingerprint(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{
		math.Float64bits(res.SteadyTPS),
		math.Float64bits(res.AvgLatency),
		math.Float64bits(res.P99),
		math.Float64bits(res.CrossFraction),
		uint64(res.Committed),
		uint64(res.BlocksCut),
		uint64(res.Retries),
		uint64(res.Aborts),
		math.Float64bits(res.MakespanSeconds),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSimFingerprint pins the simulator's outputs where the benchmark does
// not look: both protocols, strict UTXO validation (defers, rejections,
// aborts, retries) and hash placement (96% cross-shard). The values were
// recorded at the commit before the committee round went closed-form and
// the per-transaction path went on its allocation diet; the DES is
// deterministic, so any difference is a behaviour change, not noise.
// Optimistic cells run the paper's committee (400 validators, 2000-tx
// blocks); strict cells run 64 validators and 250-tx blocks and stop at two
// minutes of virtual time: on these streams strict validation rejects and
// retries most spends of a still-queued parent, so a capped run plays some
// 1,500 rounds, 30,000 retries and 8,000 aborts and leaves transactions
// uncommitted, which pins the cap path (MakespanSeconds) too.
func TestSimFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("24 simulations of 20k transactions")
	}
	const txs, shards = 20_000, 16
	workloads := []struct {
		name, spec string
		rate       float64
	}{
		{"bitcoin", "bitcoin", 6000},
		{"hotspot", "hotspot", 2000},
		{"mix-ids", mixIDsSpec, 4000},
	}
	want := map[string]uint64{
		"bitcoin/omniledger/optimistic/OptChain":   0xe77e2140235f697d,
		"bitcoin/omniledger/optimistic/OmniLedger": 0xbb7f0ffae0000fbc,
		"bitcoin/omniledger/strict/OptChain":       0x52594d160fe49527,
		"bitcoin/omniledger/strict/OmniLedger":     0xc7a46540bbcd5266,
		"bitcoin/rapidchain/optimistic/OptChain":   0x8b511d72270ae05c,
		"bitcoin/rapidchain/optimistic/OmniLedger": 0x95364c694fb8c0e0,
		"bitcoin/rapidchain/strict/OptChain":       0x82faac76a699331,
		"bitcoin/rapidchain/strict/OmniLedger":     0x3c238b95aae2039e,
		"hotspot/omniledger/optimistic/OptChain":   0x1a3f1553629480a7,
		"hotspot/omniledger/optimistic/OmniLedger": 0x4a7236e007d05452,
		"hotspot/omniledger/strict/OptChain":       0x3ab4a6e12a98a36d,
		"hotspot/omniledger/strict/OmniLedger":     0x6cc2a3335b34999,
		"hotspot/rapidchain/optimistic/OptChain":   0x2153831d53c7a91b,
		"hotspot/rapidchain/optimistic/OmniLedger": 0xb266216b3577ccb8,
		"hotspot/rapidchain/strict/OptChain":       0x88c6bc36b3f052cd,
		"hotspot/rapidchain/strict/OmniLedger":     0xa10c537d77ea9a97,
		"mix-ids/omniledger/optimistic/OptChain":   0x7a1674256ff15680,
		"mix-ids/omniledger/optimistic/OmniLedger": 0xf3aaeadb57ebb964,
		"mix-ids/omniledger/strict/OptChain":       0x686477872d314b1e,
		"mix-ids/omniledger/strict/OmniLedger":     0x5bfb3dde9fdec86e,
		"mix-ids/rapidchain/optimistic/OptChain":   0x4e9036c2224a9a5d,
		"mix-ids/rapidchain/optimistic/OmniLedger": 0x1ef1da3886b7ecac,
		"mix-ids/rapidchain/strict/OptChain":       0x3cf62d0ade73d8f4,
		"mix-ids/rapidchain/strict/OmniLedger":     0xa2ca5100bba153c5,
	}
	ran := 0
	for _, w := range workloads {
		for _, proto := range []string{"omniledger", "rapidchain"} {
			for _, strict := range []bool{false, true} {
				for _, placer := range []string{"OptChain", "OmniLedger"} {
					mode := "optimistic"
					if strict {
						mode = "strict"
					}
					id := fmt.Sprintf("%s/%s/%s/%s", w.name, proto, mode, placer)
					src, err := workload.New(w.spec, workload.Params{N: txs, Seed: 3, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{
						Source: src, Txs: txs, Shards: shards, Rate: w.rate,
						Placer: placer, Protocol: proto, ValidateUTXO: strict, Seed: 3,
					}
					if strict {
						cfg.Validators = 64
						cfg.Shard = shard.Config{BlockTxs: 250}
						cfg.MaxSimTime = 2 * time.Minute
					}
					res, err := Run(cfg)
					workload.Close(src)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					ran++
					if got := fingerprint(res); got != want[id] {
						t.Errorf("%q: %#x, // steady %v avg %v p99 %v cross %v committed %d blocks %d retries %d aborts %d makespan %v",
							id, got, res.SteadyTPS, res.AvgLatency, res.P99, res.CrossFraction,
							res.Committed, res.BlocksCut, res.Retries, res.Aborts, res.MakespanSeconds)
					}
				}
			}
		}
	}
	if ran != len(want) {
		t.Fatalf("ran %d cells, pinned %d", ran, len(want))
	}
}

// TestSimBudgets holds the per-transaction cost of a simulated transaction
// on the benchmark's two single-spec sim configurations: heap allocations
// (runtime mallocs over the whole run, set-up included) and kernel events.
// Before the closed-form round and the allocation diet both read 23.9
// allocations and 7.4 / 9.5 events per transaction, of which 4.24 / 4.28
// were not committee messages. Allocated bytes are dominated by the
// transaction arenas and the ledger's maps; the bitcoin generator's share
// was 1355 - 970 of them before its UTXO pool stopped re-copying itself
// after every compaction and its inputs got one reused buffer.
func TestSimBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulations of 100k transactions")
	}
	const (
		txs, shards = 100_000, 16
		maxAllocs   = 10.0
		maxBytes    = 1100.0
		maxEvents   = 4.5
	)
	for _, w := range []struct {
		spec string
		rate float64
	}{{"bitcoin", 6000}, {"hotspot", 2000}} {
		src, err := workload.New(w.spec, workload.Params{N: txs, Seed: 8, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(Config{Source: src, Txs: txs, Shards: shards, Rate: w.rate, Seed: 8})
		runtime.ReadMemStats(&after)
		workload.Close(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != txs {
			t.Fatalf("%s: committed %d of %d", w.spec, res.Committed, txs)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / txs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / txs
		events := float64(res.Events) / txs
		t.Logf("%s: %.2f allocs/tx, %.0f allocated B/tx, %.2f events/tx", w.spec, allocs, bytes, events)
		if allocs > maxAllocs {
			t.Errorf("%s: %.2f allocs/tx, budget %.1f", w.spec, allocs, maxAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %.0f allocated B/tx, budget %.0f", w.spec, bytes, maxBytes)
		}
		if events > maxEvents {
			t.Errorf("%s: %.2f events/tx, budget %.1f", w.spec, events, maxEvents)
		}
	}
}
