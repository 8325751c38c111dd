package workload

import (
	"fmt"
	"math/rand"

	"optchain/internal/dataset"
)

// burst is a Markov-modulated workload: the stream alternates between calm
// OFF phases at the nominal offered rate and flash-crowd ON phases where
// arrivals come `boost`× faster AND concentrate on a tight lineage cluster
// (an NFT drop, a token sale: one crowd churning the same coins). Phase
// lengths are exponential, so the on/off process is a two-state Markov
// chain — the shared BurstModulator, which replay can superimpose on real
// traces too. Bursts stress per-shard queues two ways at once: the queue of
// whichever shard hosts the crowd's lineage grows at boost× service rate,
// and the L2S latency term must detect and route around it before the
// backlog melts.
//
// Knobs:
//
//	onmean    mean ON-phase length in transactions (400)
//	offmean   mean OFF-phase length in transactions (1600)
//	boost     arrival-rate multiplier during ON phases (8)
//	fanout    coinbase fanout when liquidity runs dry (8)
type burstSource struct {
	rng    *rand.Rand
	mod    *BurstModulator
	n, i   int
	fanout int

	calm  *ring
	crowd *ring
}

func init() {
	scenarios.Must("burst", newBurst)
}

func newBurst(p Params) (Source, error) {
	if err := checkArgs("burst", p, "onmean", "offmean", "boost", "fanout"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	mod, err := NewBurstModulator(rng, p.Knob("onmean", 400), p.Knob("offmean", 1600), p.Knob("boost", 8))
	if err != nil {
		return nil, err
	}
	b := &burstSource{
		rng:    rng,
		mod:    mod,
		n:      p.N,
		fanout: int(p.Knob("fanout", 8)),
		calm:   newRing(1 << 14),
		crowd:  newRing(1 << 10),
	}
	if b.fanout < 2 {
		return nil, fmt.Errorf("%w: burst needs fanout >= 2", ErrBadParam)
	}
	return b, nil
}

func (b *burstSource) Name() string { return "burst" }

func (b *burstSource) Next(tx *Tx) bool {
	if b.i >= b.n {
		return false
	}
	i := int32(b.i)
	b.i++
	wasOn := b.mod.On()
	tx.Gap = b.mod.Step()
	if wasOn && !b.mod.On() {
		// The crowd disperses; its coins re-enter general circulation.
		for {
			o, ok := b.crowd.pop()
			if !ok {
				break
			}
			b.calm.push(o)
		}
	}

	pool := b.calm
	if b.mod.On() {
		pool = b.crowd
		if pool.len() == 0 {
			// A fresh crowd seeds itself from general circulation.
			if o, ok := b.calm.popBiased(b.rng); ok {
				pool.push(o)
			}
		}
	}

	tx.Inputs = tx.Inputs[:0]
	if pool.len() == 0 {
		// Mint liquidity into the active pool.
		tx.Outputs = b.fanout
		tx.Value = coinbaseValue
		dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
			pool.push(outpoint{tx: i, idx: idx, val: val})
		})
		return true
	}
	nIn := 1 + b.rng.Intn(2)
	var inSum int64
	for j := 0; j < nIn; j++ {
		o, ok := pool.popBiased(b.rng)
		if !ok {
			break
		}
		inSum += o.val
		tx.Inputs = append(tx.Inputs, Input{Tx: int(o.tx), Index: o.idx})
	}
	tx.Outputs = 2
	tx.Value = inSum
	dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
		pool.push(outpoint{tx: i, idx: idx, val: val})
	})
	return true
}
