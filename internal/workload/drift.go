package workload

import (
	"fmt"
	"math/rand"

	"optchain/internal/dataset"
)

// drift models community structure that rotates over time. Between
// rotations it behaves like a strongly clustered entity graph (each
// transaction spends and refills its own community's working set — the
// structure T2S's p'(v) mass learns and exploits). Every `period`
// transactions the working sets mix: each community hands the older half of
// its coins to the next community. Future spends then stitch previously
// separate lineages together, so the p'(v) mass accumulated before the
// rotation points at placements that are now wrong — the adaptation-speed
// weakness of any history-weighted fitness score. A placement strategy that
// never discounts history keeps paying cross-shard cost for a full damping
// horizon after every rotation.
//
// Knobs:
//
//	communities  number of wallet communities (32)
//	period       transactions between rotations (5000)
//	maxins       maximum inputs per transaction (3)
//	fanout       coinbase fanout when a community needs funding (8)
type driftSource struct {
	rng    *rand.Rand
	n, i   int
	period int
	maxIns int
	fanout int
	comms  []*ring
}

func init() {
	scenarios.Must("drift", newDrift)
}

// driftCommRing bounds each community's spendable working set.
const driftCommRing = 2048

func newDrift(p Params) (Source, error) {
	if err := checkArgs("drift", p, "communities", "period", "maxins", "fanout"); err != nil {
		return nil, err
	}
	comms := int(p.Knob("communities", 32))
	period := int(p.Knob("period", 5000))
	maxIns := int(p.Knob("maxins", 3))
	fanout := int(p.Knob("fanout", 8))
	if comms < 2 {
		return nil, fmt.Errorf("%w: drift needs communities >= 2, got %d", ErrBadParam, comms)
	}
	if period < 1 {
		return nil, fmt.Errorf("%w: drift needs period >= 1, got %d", ErrBadParam, period)
	}
	if maxIns < 1 || fanout < 2 {
		return nil, fmt.Errorf("%w: drift needs maxins >= 1 and fanout >= 2", ErrBadParam)
	}
	d := &driftSource{
		rng:    rand.New(rand.NewSource(p.Seed)),
		n:      p.N,
		period: period,
		maxIns: maxIns,
		fanout: fanout,
		comms:  make([]*ring, comms),
	}
	for c := range d.comms {
		d.comms[c] = newRing(driftCommRing)
	}
	return d, nil
}

func (d *driftSource) Name() string { return "drift" }

// rotate hands the older half of every community's working set to the next
// community (cyclically), merging adjacent lineages.
func (d *driftSource) rotate() {
	k := len(d.comms)
	donated := make([][]outpoint, k)
	for c, r := range d.comms {
		half := len(r.buf) / 2
		donated[(c+1)%k] = append([]outpoint(nil), r.buf[:half]...)
		r.buf = r.buf[:copy(r.buf, r.buf[half:])]
	}
	for c, coins := range donated {
		for _, o := range coins {
			d.comms[c].push(o)
		}
	}
}

func (d *driftSource) Next(tx *Tx) bool {
	if d.i >= d.n {
		return false
	}
	i := int32(d.i)
	if d.i > 0 && d.i%d.period == 0 {
		d.rotate()
	}
	d.i++

	c := d.rng.Intn(len(d.comms))
	pool := d.comms[c]
	tx.Inputs = tx.Inputs[:0]
	tx.Gap = 1
	if pool.len() == 0 {
		tx.Outputs = d.fanout
		tx.Value = coinbaseValue
		dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
			pool.push(outpoint{tx: i, idx: idx, val: val})
		})
		return true
	}
	nIn := 1 + d.rng.Intn(d.maxIns)
	var inSum int64
	for j := 0; j < nIn; j++ {
		o, ok := pool.popBiased(d.rng)
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
