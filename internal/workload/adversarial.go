package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"optchain/internal/chain"
	"optchain/internal/dataset"
)

// adversarial is a worst-case workload: an attacker who watches where
// transactions land (the Observer feedback a public blockchain hands out
// for free) and crafts each new transaction to spend recent outputs from
// `spread` DISTINCT shards — preferring the least-loaded ones. Whatever
// single shard the placer chooses, at least spread−1 inputs live elsewhere,
// so the transaction is unavoidably cross-shard; and because the inputs sit
// in under-loaded shards, load-aware placement is pulled toward exactly the
// shards that maximize future spread. This is the stream that bounds how
// much T2S+L2S fitness can possibly save: a placement-independent
// cross-shard floor.
//
// Drivers that place transactions feed decisions back via Observe. Without
// any feedback (tangen materializing a trace), the source falls back to
// assuming OmniLedger's hash placement — which an adversary can compute
// offline, and which is exactly the baseline it attacks.
//
// Knobs:
//
//	spread   distinct shards each transaction draws inputs from (2)
//	fanout   coinbase fanout when liquidity runs dry (8)
type advSource struct {
	rng    *rand.Rand
	n, i   int
	k      int
	spread int
	fanout int

	shards []*ring // adversary's belief: recent outputs per shard
	counts []int64 // adversary's belief: transactions per shard

	// pending holds outputs of transactions whose placement has not been
	// observed yet (drivers batch decisions, so observations lag by up to a
	// placement chunk). Entries older than observeLag are resolved with the
	// hash fallback so unobserved runs still make progress.
	pending []advPending

	candidates []int // reused least-loaded selection buffer
}

type advPending struct {
	tx   int32
	outs []outpoint
}

// observeLag bounds how many transactions may stay unobserved before the
// adversary resolves them with the hash-placement assumption. It comfortably
// covers the Engine's 256-transaction placement chunks.
const observeLag = 1024

// advShardRing bounds the per-shard recent-output belief.
const advShardRing = 4096

func init() {
	scenarios.Must("adversarial", newAdversarial)
}

func newAdversarial(p Params) (Source, error) {
	if err := checkArgs("adversarial", p, "spread", "fanout"); err != nil {
		return nil, err
	}
	k := p.Shards
	spread := int(p.Knob("spread", 2))
	fanout := int(p.Knob("fanout", 8))
	if spread < 1 {
		return nil, fmt.Errorf("%w: adversarial needs spread >= 1, got %d", ErrBadParam, spread)
	}
	if fanout < 2 {
		return nil, fmt.Errorf("%w: adversarial needs fanout >= 2", ErrBadParam)
	}
	if spread > k {
		spread = k
	}
	a := &advSource{
		rng:    rand.New(rand.NewSource(p.Seed)),
		n:      p.N,
		k:      k,
		spread: spread,
		fanout: fanout,
		shards: make([]*ring, k),
		counts: make([]int64, k),
	}
	for s := range a.shards {
		a.shards[s] = newRing(advShardRing)
	}
	return a, nil
}

func (a *advSource) Name() string { return "adversarial" }

// Observe implements Observer: the driver reports where transaction i
// landed, resolving the adversary's pending outputs into per-shard beliefs.
func (a *advSource) Observe(i, s int) {
	if s < 0 || s >= a.k {
		return
	}
	for len(a.pending) > 0 && int(a.pending[0].tx) <= i {
		p := a.pending[0]
		a.pending = a.pending[1:]
		at := s
		if int(p.tx) != i {
			// A gap means this entry's decision was never delivered
			// (skipped transactions); assume hash placement for it.
			at = a.hashShard(p.tx)
		}
		a.land(p, at)
	}
}

// hashShard is OmniLedger's placement, computable offline by the adversary.
func (a *advSource) hashShard(tx int32) int {
	return int(chain.TxID(int64(tx)+1).Hash() % uint64(a.k))
}

func (a *advSource) land(p advPending, s int) {
	a.counts[s]++
	for _, o := range p.outs {
		a.shards[s].push(o)
	}
}

func (a *advSource) Next(tx *Tx) bool {
	if a.i >= a.n {
		return false
	}
	i := int32(a.i)
	a.i++

	// Resolve observations that never arrived before the lag window closed.
	for len(a.pending) > observeLag {
		p := a.pending[0]
		a.pending = a.pending[1:]
		a.land(p, a.hashShard(p.tx))
	}

	// Least-loaded shards (by the adversary's belief) that still have
	// spendable recent outputs.
	a.candidates = a.candidates[:0]
	for s := 0; s < a.k; s++ {
		if a.shards[s].len() > 0 {
			a.candidates = append(a.candidates, s)
		}
	}
	sort.Slice(a.candidates, func(x, y int) bool {
		cx, cy := a.candidates[x], a.candidates[y]
		if a.counts[cx] != a.counts[cy] {
			return a.counts[cx] < a.counts[cy]
		}
		return cx < cy
	})

	tx.Inputs = tx.Inputs[:0]
	tx.Gap = 1
	var outs []outpoint
	if len(a.candidates) < a.spread {
		// Not enough shards hold spendable coins yet: mint liquidity. The
		// coinbase lands wherever the placer puts it, seeding a new shard.
		tx.Outputs = a.fanout
		tx.Value = coinbaseValue
		outs = make([]outpoint, 0, tx.Outputs)
		dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
			outs = append(outs, outpoint{tx: i, idx: idx, val: val})
		})
	} else {
		var inSum int64
		for _, s := range a.candidates[:a.spread] {
			o, _ := a.shards[s].popBiased(a.rng)
			inSum += o.val
			tx.Inputs = append(tx.Inputs, Input{Tx: int(o.tx), Index: o.idx})
		}
		tx.Outputs = 2
		tx.Value = inSum
		outs = make([]outpoint, 0, tx.Outputs)
		dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
			outs = append(outs, outpoint{tx: i, idx: idx, val: val})
		})
	}
	a.pending = append(a.pending, advPending{tx: i, outs: outs})
	return true
}

// Compile-time check: adversarial is the feedback-aware scenario.
var _ Observer = (*advSource)(nil)
