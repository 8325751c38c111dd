// Package omniledger implements the client-driven atomic commit protocol
// for cross-shard transactions described in paper §III-A, over the shard
// committee substrate:
//
//  1. Initialize — the client sends the transaction to every input shard
//     (directly, per the paper's §V-A bottleneck fix: no global gossip).
//  2. Lock — each input shard validates the inputs it manages inside its
//     next block; success locks them and yields a proof-of-acceptance,
//     failure yields a proof-of-rejection.
//  3. Commit/Abort — with all proofs-of-acceptance, the client sends an
//     unlock-to-commit to the output shard, which commits the transaction
//     in its next block; on any rejection the client sends unlock-to-abort
//     messages that release the held locks.
//
// Same-shard transactions (all inputs managed by the output shard) skip the
// lock round entirely — the source of OptChain's latency and throughput
// advantage.
package omniledger

import (
	"fmt"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/shard"
	"optchain/internal/simnet"
)

// Message size constants (bytes). Proofs and acks are small control
// messages; lock and commit payloads carry the transaction.
const (
	ProofBytes = 256
	AckBytes   = 128
)

// Protocol coordinates commits across shards.
type Protocol struct {
	// Optimistic applies ledger effects with out-of-order tolerance
	// (chain.Ledger.ConsumeOptimistic): spends of outputs that have not
	// been created yet succeed and resolve when the output appears. This
	// is the paper's simulation regime — the replayed trace is globally
	// valid, so arrival-order validation noise is excluded from the
	// latency/throughput measurements. Strict mode (false) validates
	// in-order and exercises the full defer/reject/abort machinery.
	Optimistic bool

	sim    *des.Simulator
	net    *simnet.Network
	shards []*shard.Shard
	// inputs groups a transaction's inputs by the shard holding them.
	inputs chain.Grouper

	// Counters for reports.
	SameShard  int64
	CrossShard int64
	Aborts     int64
}

// New builds the protocol layer. locate must return the shard that manages
// the outputs of a given (already placed) transaction.
func New(sim *des.Simulator, net *simnet.Network, shards []*shard.Shard, locate func(chain.TxID) int) *Protocol {
	return &Protocol{sim: sim, net: net, shards: shards, inputs: chain.Grouper{Locate: locate}}
}

// Counters reports the running same-shard / cross-shard / abort tallies.
func (p *Protocol) Counters() (same, cross, aborts int64) {
	return p.SameShard, p.CrossShard, p.Aborts
}

// Submit runs the commit protocol for tx from the given client node, with
// the output shard already chosen by the placement strategy. done fires
// exactly once, when the client learns the outcome (commit ack or abort),
// with whether the transaction committed.
//
//optchain:hotpath a same-shard transaction costs its sameTx and the two bound callbacks; only cross-shard ones group their inputs.
func (p *Protocol) Submit(client simnet.NodeID, tx *chain.Transaction, outShard int, done func(sim *des.Simulator, ok bool)) {
	if outShard < 0 || outShard >= len(p.shards) {
		panic(fmt.Sprintf("omniledger: output shard %d of %d", outShard, len(p.shards)))
	}
	groups := p.inputs.Split(tx, outShard)
	if groups == nil {
		p.SameShard++
		//optchain:alloc-ok the one value a same-shard transaction lives in
		t := &sameTx{p: p, client: client, tx: tx, sh: p.shards[outShard], done: done}
		p.net.Send(client, t.sh.Leader, tx.SizeBytes(), "ol.sameshard", t.arrive)
		return
	}
	p.CrossShard++
	p.submitCross(client, tx, outShard, groups, done)
}

// sameTx is a same-shard transaction in flight: its single shard locks,
// spends, and credits outputs inside one block.
type sameTx struct {
	p      *Protocol
	client simnet.NodeID
	tx     *chain.Transaction
	sh     *shard.Shard
	done   func(*des.Simulator, bool)
	ok     bool
}

//optchain:hotpath
func (t *sameTx) arrive(*des.Simulator) {
	t.sh.Enqueue(shard.Item{Tx: t.tx.ID, Bytes: t.tx.SizeBytes(), MaxDefers: 8, Work: t})
}

// Execute implements shard.Work.
//
//optchain:hotpath
func (t *sameTx) Execute() error {
	if !t.tx.IsCoinbase() {
		if err := t.p.consume(t.sh, t.tx.ID, t.tx.Inputs); err != nil {
			return err
		}
	}
	return t.sh.Ledger().AddOutputs(t.tx)
}

// Done implements shard.Work: the commit ack travels back.
//
//optchain:hotpath
func (t *sameTx) Done(_ *des.Simulator, err error) {
	t.ok = err == nil
	t.p.net.Send(t.sh.Leader, t.client, AckBytes, "ol.ack", t.acked)
}

func (t *sameTx) acked(sim *des.Simulator) { t.done(sim, t.ok) }

// crossTx is a cross-shard transaction in flight, Initialize → Lock →
// Commit/Abort. It is also the work of its own unlock-to-commit item.
type crossTx struct {
	p        *Protocol
	client   simnet.NodeID
	tx       *chain.Transaction
	outShard int
	size     int
	done     func(*des.Simulator, bool)

	locks    []lockReq
	pending  int // proofs still travelling
	accepted int // proofs-of-acceptance received
	ok       bool
}

// lockReq is the lock request one input shard serves for a crossTx, and the
// work of its mempool item.
type lockReq struct {
	x *crossTx
	chain.InputGroup
	err error
	// accepted numbers the proofs-of-acceptance in arrival order from 1 (0:
	// none yet, or rejected); an abort releases the locks in that order.
	accepted int
}

// submitCross runs phases 1+2: send lock requests; each input shard
// validates in-block.
func (p *Protocol) submitCross(client simnet.NodeID, tx *chain.Transaction, outShard int, groups []chain.InputGroup, done func(*des.Simulator, bool)) {
	x := &crossTx{
		p: p, client: client, tx: tx, outShard: outShard, size: tx.SizeBytes(), done: done,
		locks: make([]lockReq, len(groups)), pending: len(groups),
	}
	for i, g := range groups {
		l := &x.locks[i]
		l.x, l.InputGroup = x, g
		p.net.Send(client, p.shards[g.Shard].Leader, x.size, "ol.lock", l.arrive)
	}
}

func (l *lockReq) arrive(*des.Simulator) {
	l.x.p.shards[l.Shard].Enqueue(shard.Item{Tx: l.x.tx.ID, Bytes: l.x.size, MaxDefers: 8, Work: l})
}

// Execute implements shard.Work.
func (l *lockReq) Execute() error {
	return l.x.p.lockOrConsume(l.x.p.shards[l.Shard], l.x.tx.ID, l.Ops)
}

// Done implements shard.Work: proof-of-acceptance or -rejection travels
// back.
func (l *lockReq) Done(_ *des.Simulator, err error) {
	l.err = err
	l.x.p.net.Send(l.x.p.shards[l.Shard].Leader, l.x.client, ProofBytes, "ol.proof", l.proved)
}

func (l *lockReq) proved(sim *des.Simulator) {
	x := l.x
	if l.err == nil {
		x.accepted++
		l.accepted = x.accepted
	}
	x.pending--
	if x.pending > 0 {
		return
	}
	if x.accepted < len(x.locks) {
		x.abort(sim)
	} else {
		x.commit()
	}
}

// commit is phase 3a: all proofs-of-acceptance collected — unlock-to-commit.
func (x *crossTx) commit() {
	p := x.p
	// Finalize the input-side spends (the lock block already recorded
	// them; this consumes the locks).
	for i := range x.locks {
		if l := &x.locks[i]; l.Shard != x.outShard {
			p.net.Send(x.client, p.shards[l.Shard].Leader, AckBytes, "ol.finalize", l.finalize)
		}
	}
	p.net.Send(x.client, p.shards[x.outShard].Leader, x.commitSize(), "ol.commit", x.arrive)
}

func (x *crossTx) commitSize() int { return x.size + ProofBytes*len(x.locks) }

func (l *lockReq) finalize(*des.Simulator) {
	if !l.x.p.Optimistic {
		_ = l.x.p.shards[l.Shard].Ledger().SpendLocked(l.x.tx.ID, l.Ops)
	}
}

func (x *crossTx) arrive(*des.Simulator) {
	x.p.shards[x.outShard].Enqueue(shard.Item{Tx: x.tx.ID, Bytes: x.commitSize(), Work: x})
}

// Execute implements shard.Work for the unlock-to-commit item.
func (x *crossTx) Execute() error {
	ledger := x.p.shards[x.outShard].Ledger()
	// Inputs managed by the output shard itself were locked in the lock
	// round; consume them now (optimistic mode already consumed them at
	// lock time).
	if !x.p.Optimistic {
		for i := range x.locks {
			if l := &x.locks[i]; l.Shard == x.outShard {
				if err := ledger.SpendLocked(x.tx.ID, l.Ops); err != nil {
					return err
				}
			}
		}
	}
	return ledger.AddOutputs(x.tx)
}

// Done implements shard.Work: the commit ack travels back.
func (x *crossTx) Done(_ *des.Simulator, err error) {
	x.ok = err == nil
	x.p.net.Send(x.p.shards[x.outShard].Leader, x.client, AckBytes, "ol.ack", x.acked)
}

func (x *crossTx) acked(sim *des.Simulator) { x.done(sim, x.ok) }

// abort is phase 3b: some shard rejected — unlock-to-abort the accepted
// locks, in the order their proofs arrived.
func (x *crossTx) abort(sim *des.Simulator) {
	p := x.p
	p.Aborts++
	for n := 1; n <= x.accepted; n++ {
		for i := range x.locks {
			if l := &x.locks[i]; l.accepted == n {
				p.net.Send(x.client, p.shards[l.Shard].Leader, AckBytes, "ol.abort", l.release)
			}
		}
	}
	x.done(sim, false)
}

func (l *lockReq) release(*des.Simulator) {
	ledger := l.x.p.shards[l.Shard].Ledger()
	if l.x.p.Optimistic {
		ledger.ReleaseOptimistic(l.x.tx.ID, l.Ops, nil)
	} else {
		ledger.Abort(l.x.tx.ID, l.Ops)
	}
}

// consume applies a same-shard spend under the configured validation mode.
func (p *Protocol) consume(sh *shard.Shard, id chain.TxID, ops []chain.Outpoint) error {
	if p.Optimistic {
		return sh.Ledger().ConsumeOptimistic(id, ops)
	}
	return sh.Ledger().LockAndSpend(id, ops)
}

// lockOrConsume applies the lock-round effect under the configured mode: in
// optimistic mode the inputs are consumed outright (OmniLedger marks locked
// inputs spent), in strict mode they are locked pending the unlock message.
func (p *Protocol) lockOrConsume(sh *shard.Shard, id chain.TxID, ops []chain.Outpoint) error {
	if p.Optimistic {
		return sh.Ledger().ConsumeOptimistic(id, ops)
	}
	return sh.Ledger().Lock(id, ops)
}
