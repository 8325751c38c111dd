// Package rapidchain implements the "yanking" cross-shard commit mechanism
// sketched in paper §III-A: instead of a client-driven lock/unlock exchange,
// the *output shard's committee* coordinates. Input UTXOs are yanked —
// locked at their home shard inside a block, then transferred to the output
// shard via an inter-committee message — and once every input has arrived,
// the output shard commits the final transaction in its own block.
//
// The paper predicts OptChain's placement benefits transfer to RapidChain
// ("we predict a similar level of improvement"); this backend exists to
// test that prediction (ablation A4).
package rapidchain

import (
	"fmt"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/shard"
	"optchain/internal/simnet"
)

// Message size constants (bytes).
const (
	YankAckBytes = 512 // carries the yanked UTXO set and its proof
	AckBytes     = 128
)

// Protocol coordinates yank-based commits.
type Protocol struct {
	// Optimistic mirrors omniledger.Protocol.Optimistic: ledger effects
	// tolerate replay-order races via chain.Ledger.ConsumeOptimistic.
	Optimistic bool

	sim    *des.Simulator
	net    *simnet.Network
	shards []*shard.Shard
	// inputs groups a transaction's inputs by the shard holding them.
	inputs chain.Grouper

	SameShard  int64
	CrossShard int64
	Aborts     int64
}

// New builds the protocol layer; locate maps transactions to the shard
// holding their outputs.
func New(sim *des.Simulator, net *simnet.Network, shards []*shard.Shard, locate func(chain.TxID) int) *Protocol {
	return &Protocol{sim: sim, net: net, shards: shards, inputs: chain.Grouper{Locate: locate}}
}

// Counters reports the running same-shard / cross-shard / abort tallies.
func (p *Protocol) Counters() (same, cross, aborts int64) {
	return p.SameShard, p.CrossShard, p.Aborts
}

// yankTx is a transaction in flight at its output committee, which
// coordinates the yanking of remote inputs. It is also the work of its own
// final commit item.
type yankTx struct {
	p        *Protocol
	client   simnet.NodeID
	tx       *chain.Transaction
	outShard int
	size     int
	done     func(*des.Simulator, bool)

	local   []chain.Outpoint // inputs the output shard manages itself
	yanks   []yank           // one per remote input shard
	pending int              // yank acks still travelling
	yanked  int              // successful yanks acknowledged
	ok      bool
}

// yank is the transfer of one remote shard's inputs for a yankTx, and the
// work of its mempool item.
type yank struct {
	x *yankTx
	chain.InputGroup
	values []int64 // captured at yank time so an abort can restore them
	err    error
	// yanked numbers the successful yanks in ack-arrival order from 1 (0:
	// none yet, or rejected); an abort returns them in that order.
	yanked int
}

// Submit sends tx from client to its output shard, which coordinates
// yanking of remote inputs. done fires once, when the client learns the
// outcome, with whether the transaction committed.
//
//optchain:hotpath a same-shard transaction costs its yankTx and the two bound callbacks.
func (p *Protocol) Submit(client simnet.NodeID, tx *chain.Transaction, outShard int, done func(sim *des.Simulator, ok bool)) {
	if outShard < 0 || outShard >= len(p.shards) {
		panic(fmt.Sprintf("rapidchain: output shard %d of %d", outShard, len(p.shards)))
	}
	//optchain:alloc-ok the one value a transaction lives in
	x := &yankTx{p: p, client: client, tx: tx, outShard: outShard, size: tx.SizeBytes(), done: done, local: tx.Inputs}
	if groups := p.inputs.Split(tx, outShard); groups != nil {
		p.CrossShard++
		x.local = nil
		//optchain:alloc-ok cross-shard only
		x.yanks = make([]yank, 0, len(groups))
		for _, g := range groups {
			if g.Shard == outShard {
				x.local = g.Ops
			} else {
				x.yanks = append(x.yanks, yank{x: x, InputGroup: g})
			}
		}
	} else {
		p.SameShard++
	}
	// The client's only job: ship the transaction to the output committee.
	p.net.Send(client, p.shards[outShard].Leader, x.size, "rc.submit", x.coordinate)
}

// coordinate runs at the output shard leader.
func (x *yankTx) coordinate(*des.Simulator) {
	if len(x.yanks) == 0 {
		x.finalCommit()
		return
	}
	p := x.p
	x.pending = len(x.yanks)
	for i := range x.yanks {
		y := &x.yanks[i]
		// Inter-committee yank request.
		p.net.Send(p.shards[x.outShard].Leader, p.shards[y.Shard].Leader, x.size, "rc.yank", y.arrive)
	}
}

func (x *yankTx) finalCommit() {
	x.p.shards[x.outShard].Enqueue(shard.Item{
		Tx: x.tx.ID, Bytes: x.size + YankAckBytes*len(x.yanks), Kind: "commit", MaxDefers: 4, Work: x,
	})
}

// Execute implements shard.Work for the final commit item.
func (x *yankTx) Execute() error {
	out := x.p.shards[x.outShard]
	if len(x.local) > 0 {
		if err := x.p.consume(out, x.tx.ID, x.local); err != nil {
			return err
		}
	}
	// Remote inputs were consumed at their home shard when yanked; their
	// value arrives with the yank proof.
	return out.Ledger().AddOutputs(x.tx)
}

// Done implements shard.Work: the commit ack travels back.
func (x *yankTx) Done(_ *des.Simulator, err error) {
	x.ok = err == nil
	x.p.net.Send(x.p.shards[x.outShard].Leader, x.client, AckBytes, "rc.ack", x.acked)
}

func (x *yankTx) acked(sim *des.Simulator) { x.done(sim, x.ok) }

func (y *yank) arrive(*des.Simulator) {
	y.x.p.shards[y.Shard].Enqueue(shard.Item{Tx: y.x.tx.ID, Bytes: y.x.size, Kind: "yank", MaxDefers: 8, Work: y})
}

// Execute implements shard.Work: capture values so an abort can restore
// them, then lock and consume in one step: the UTXO leaves this shard with
// the yank proof.
func (y *yank) Execute() error {
	in := y.x.p.shards[y.Shard]
	if y.values == nil {
		y.values = make([]int64, len(y.Ops))
	}
	for i, op := range y.Ops {
		y.values[i], _ = in.Ledger().OutputValue(op)
	}
	return y.x.p.consume(in, y.x.tx.ID, y.Ops)
}

// Done implements shard.Work: the yank proof (or its refusal) travels to
// the coordinating committee.
func (y *yank) Done(_ *des.Simulator, err error) {
	y.err = err
	p := y.x.p
	p.net.Send(p.shards[y.Shard].Leader, p.shards[y.x.outShard].Leader, YankAckBytes, "rc.yankack", y.acked)
}

func (y *yank) acked(sim *des.Simulator) {
	x := y.x
	if y.err == nil {
		x.yanked++
		y.yanked = x.yanked
	}
	x.pending--
	if x.pending > 0 {
		return
	}
	if x.yanked < len(x.yanks) {
		x.abort()
		return
	}
	x.finalCommit()
}

// abort returns yanked UTXOs to their home shards (re-credit), in the order
// their acks arrived, and notifies the client of failure.
func (x *yankTx) abort() {
	p := x.p
	p.Aborts++
	coordinator := p.shards[x.outShard].Leader
	for n := 1; n <= x.yanked; n++ {
		for i := range x.yanks {
			if y := &x.yanks[i]; y.yanked == n {
				p.net.Send(coordinator, p.shards[y.Shard].Leader, AckBytes, "rc.unyank", y.restore)
			}
		}
	}
	p.net.Send(coordinator, x.client, AckBytes, "rc.nack", x.nacked)
}

func (x *yankTx) nacked(sim *des.Simulator) { x.done(sim, false) }

// restore re-credits the consumed outputs: the yank proof is void.
func (y *yank) restore(*des.Simulator) {
	ledger := y.x.p.shards[y.Shard].Ledger()
	if y.x.p.Optimistic {
		ledger.ReleaseOptimistic(y.x.tx.ID, y.Ops, y.valueOf)
		return
	}
	for i, op := range y.Ops {
		ledger.RestoreUTXO(op, y.values[i])
	}
}

func (y *yank) valueOf(op chain.Outpoint) int64 {
	for i, o := range y.Ops {
		if o == op {
			return y.values[i]
		}
	}
	return 0
}

// consume applies a spend under the configured validation mode.
func (p *Protocol) consume(sh *shard.Shard, id chain.TxID, ops []chain.Outpoint) error {
	if p.Optimistic {
		return sh.Ledger().ConsumeOptimistic(id, ops)
	}
	return sh.Ledger().LockAndSpend(id, ops)
}
