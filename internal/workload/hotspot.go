package workload

import (
	"fmt"
	"math/rand"

	"optchain/internal/dataset"
)

// hotspot models Zipf-skewed wallet popularity: a handful of hot wallets
// (exchanges, payment processors) send and receive a disproportionate share
// of traffic, concentrating lineage mass. Ren & Ward (2021) show skew like
// this is where one-hop heuristics and random placement diverge most:
// hash-based placement scatters a hot wallet's coins across all shards
// (every spend cross-shard), while lineage-aware fitness can keep each hot
// wallet's working set at home — but only until the hot shard saturates,
// which is what the capacity bound and L2S term are for.
//
// Knobs:
//
//	wallets   number of wallets (10000)
//	exp       Zipf exponent s > 1; larger = more skew (1.2)
//	maxins    maximum inputs per transaction (3)
//	fanout    coinbase fanout when a wallet needs funding (8)
type hotspotSource struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	n, i    int
	maxIns  int
	fanout  int
	wallets []*ring
}

func init() {
	scenarios.Must("hotspot", newHotspot)
}

// hotspotWalletRing bounds each wallet's spendable working set.
const hotspotWalletRing = 12

// coinbaseValue is the minted value feeding every non-bitcoin scenario;
// large enough that even splits survive many generations of halving.
const coinbaseValue = int64(1) << 44

func newHotspot(p Params) (Source, error) {
	if err := checkArgs("hotspot", p, "wallets", "exp", "maxins", "fanout"); err != nil {
		return nil, err
	}
	wallets := int(p.Knob("wallets", 10_000))
	exp := p.Knob("exp", 1.2)
	maxIns := int(p.Knob("maxins", 3))
	fanout := int(p.Knob("fanout", 8))
	if wallets < 2 {
		return nil, fmt.Errorf("%w: hotspot needs wallets >= 2, got %d", ErrBadParam, wallets)
	}
	if exp <= 1 {
		return nil, fmt.Errorf("%w: hotspot needs exp > 1, got %v", ErrBadParam, exp)
	}
	if maxIns < 1 || fanout < 2 {
		return nil, fmt.Errorf("%w: hotspot needs maxins >= 1 and fanout >= 2", ErrBadParam)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	h := &hotspotSource{
		rng:     rng,
		zipf:    rand.NewZipf(rng, exp, 1, uint64(wallets-1)),
		n:       p.N,
		maxIns:  maxIns,
		fanout:  fanout,
		wallets: make([]*ring, wallets),
	}
	for w := range h.wallets {
		h.wallets[w] = newRing(hotspotWalletRing)
	}
	return h, nil
}

func (h *hotspotSource) Name() string { return "hotspot" }

func (h *hotspotSource) Next(tx *Tx) bool {
	if h.i >= h.n {
		return false
	}
	i := int32(h.i)
	h.i++
	sender := int(h.zipf.Uint64())
	receiver := int(h.zipf.Uint64())

	tx.Inputs = tx.Inputs[:0]
	tx.Gap = 1
	own := h.wallets[sender]
	if own.len() == 0 {
		// The sender has no spendable coins: a funding coinbase (an
		// exchange withdrawal / faucet) fans out into the sender's wallet.
		tx.Outputs = h.fanout
		tx.Value = coinbaseValue
		dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
			own.push(outpoint{tx: i, idx: idx, val: val})
		})
		return true
	}
	nIn := 1 + h.rng.Intn(h.maxIns)
	var inSum int64
	for j := 0; j < nIn; j++ {
		o, ok := own.popBiased(h.rng)
		if !ok {
			break
		}
		inSum += o.val
		tx.Inputs = append(tx.Inputs, Input{Tx: int(o.tx), Index: o.idx})
	}
	// One payment to the receiver, one change output back to the sender —
	// the co-spend structure lineage-aware placement exploits.
	tx.Outputs = 2
	tx.Value = inSum
	slot := 0
	dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
		owner := receiver
		if slot == 1 {
			owner = sender
		}
		slot++
		h.wallets[owner].push(outpoint{tx: i, idx: idx, val: val})
	})
	return true
}
