package chain

import "slices"

// InputGroup is the set of a transaction's inputs managed by one shard.
type InputGroup struct {
	Shard int
	Ops   []Outpoint
}

// Grouper splits transactions' inputs by managing shard for the cross-shard
// protocols. It owns the scratch the split needs, so it is not safe for
// concurrent use.
type Grouper struct {
	// Locate maps a transaction to the shard holding its outputs.
	Locate func(TxID) int

	shards []int // the managing shard of each input of the transaction in hand
}

// Split returns tx's inputs grouped by managing shard, groups in
// first-appearance order and each group's outpoints in input order, or nil
// when home manages every input (the same-shard case, which allocates
// nothing). The groups of one transaction share one backing array.
//
//optchain:hotpath the same-shard path of every submitted transaction.
func (g *Grouper) Split(tx *Transaction, home int) []InputGroup {
	g.shards = g.shards[:0]
	distinct, foreign := 0, false
	for _, op := range tx.Inputs {
		s := g.Locate(op.Tx)
		foreign = foreign || s != home
		if !slices.Contains(g.shards, s) {
			distinct++
		}
		g.shards = append(g.shards, s)
	}
	if !foreign {
		return nil
	}
	//optchain:alloc-ok a cross-shard transaction's two allocations: its groups and their shared outpoint array
	groups, ops := make([]InputGroup, 0, distinct), make([]Outpoint, 0, len(tx.Inputs))
	for i, s := range g.shards {
		if slices.Contains(g.shards[:i], s) {
			continue
		}
		from := len(ops)
		for j := i; j < len(g.shards); j++ {
			if g.shards[j] == s {
				ops = append(ops, tx.Inputs[j])
			}
		}
		groups = append(groups, InputGroup{Shard: s, Ops: ops[from:len(ops):len(ops)]})
	}
	return groups
}
