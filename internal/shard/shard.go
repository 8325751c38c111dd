// Package shard models one shard committee of the paper's evaluation
// (§V-A): a leader and ~400 validators at random coordinates, a mempool
// queue of pending work, and block consensus whose latency *emerges* from
// the network model — the leader disseminates the block through a binary
// tree over the committee (pipelined forwarding, per-sender bandwidth
// serialization), validators verify and vote, and a small certificate round
// finalizes the block once a 2/3 quorum is reached.
//
// The committee round is evaluated in closed form (see consensus.go): four
// kernel events per block, not four per validator.
//
// The shard is protocol-agnostic: work items carry a Work value, so the
// OmniLedger atomic-commit protocol and the RapidChain yanking protocol
// compose on top without the shard knowing about locks or proofs.
package shard

import (
	"math"
	"time"

	"optchain/internal/chain"
	"optchain/internal/des"
	"optchain/internal/simnet"
	"optchain/internal/stats"
)

// Work is what a mempool item does at block finality. The protocols
// implement it on the per-transaction value they allocate anyway, so an
// item costs no closure.
type Work interface {
	// Execute applies the item's ledger effect. It runs in block order when
	// the block reaches finality; a non-nil error means the item was
	// rejected (e.g. proof-of-rejection for a lock whose UTXOs are
	// missing), or deferred to a later block while Item.MaxDefers lasts.
	Execute() error
	// Done is invoked exactly once, right after the Execute that settled
	// the item, with its error. Typically it sends a message back to the
	// client.
	Done(sim *des.Simulator, err error)
}

// Item is one unit of mempool work: a same-shard transaction, a cross-shard
// lock request, an unlock-to-commit, or a yank transfer. The mempool holds
// items by value.
type Item struct {
	// Tx is the transaction this work belongs to.
	Tx chain.TxID
	// Bytes is the block space the item occupies.
	Bytes int
	// Work is the item's effect; nil occupies block space and does nothing.
	Work Work

	// MaxDefers allows a failing Execute to be re-enqueued (to a later
	// block) this many times before the failure is reported through Done.
	// It models a real mempool's orphan pool: a transaction whose parent
	// is still queued waits for a later block instead of being rejected.
	MaxDefers int

	defers int
}

// Config holds the committee and block parameters (§V-A defaults).
type Config struct {
	// BlockTxs caps transactions per block (paper: 2000).
	BlockTxs int
	// MaxBlockBytes caps block size (paper: 1 MB).
	MaxBlockBytes int
	// MaxBlockWait bounds how long a lone item waits before a partial
	// block is cut when the shard is otherwise idle.
	MaxBlockWait time.Duration
	// VerifyPerTx is each validator's per-transaction verification cost.
	VerifyPerTx time.Duration
	// VerifyBase is the fixed per-block verification overhead.
	VerifyBase time.Duration
	// VoteBytes / CertBytes size the two small consensus rounds.
	VoteBytes int
	CertBytes int
	// BlockOverheadBytes is the header cost added to every block.
	BlockOverheadBytes int
}

// DefaultConfig returns parameters matching the paper's setup.
func DefaultConfig() Config {
	return Config{
		BlockTxs:           2000,
		MaxBlockBytes:      1 << 20,
		MaxBlockWait:       2 * time.Second,
		VerifyPerTx:        30 * time.Microsecond,
		VerifyBase:         10 * time.Millisecond,
		VoteBytes:          150,
		CertBytes:          1024,
		BlockOverheadBytes: 512,
	}
}

// Shard is one committee with its mempool, ledger, and consensus loop.
type Shard struct {
	ID         int
	Leader     simnet.NodeID
	Validators []simnet.NodeID

	cfg    Config
	sim    *des.Simulator
	net    *simnet.Network
	ledger *chain.Ledger

	// queue[head:] is the mempool, queue[:head] the blocks cut from it since
	// compact last moved it to the front: cutting strands no capacity.
	queue       []Item
	head        int
	queuedBytes int
	round       round
	busy        bool
	idleTimer   des.Handle
	timerArmed  bool

	consensusTime *stats.EWMA
	coldEstimate  float64     // consensusTime's value before the first block
	arrivalRate   *stats.EWMA // items/second, per-block windows
	arrivalCount  int
	windowStart   time.Duration
	height        int

	// Metrics counters.
	CommittedItems int64
	RejectedItems  int64
	DeferredItems  int64
	BlocksCut      int64
}

// New creates a shard with the given committee placement.
func New(id int, sim *des.Simulator, net *simnet.Network, leader simnet.NodeID, validators []simnet.NodeID, cfg Config) *Shard {
	def := DefaultConfig()
	if cfg.BlockTxs <= 0 {
		cfg.BlockTxs = def.BlockTxs
	}
	if cfg.MaxBlockBytes <= 0 {
		cfg.MaxBlockBytes = def.MaxBlockBytes
	}
	if cfg.MaxBlockWait <= 0 {
		cfg.MaxBlockWait = def.MaxBlockWait
	}
	if cfg.VerifyPerTx <= 0 {
		cfg.VerifyPerTx = def.VerifyPerTx
	}
	if cfg.VerifyBase <= 0 {
		cfg.VerifyBase = def.VerifyBase
	}
	if cfg.VoteBytes <= 0 {
		cfg.VoteBytes = def.VoteBytes
	}
	if cfg.CertBytes <= 0 {
		cfg.CertBytes = def.CertBytes
	}
	if cfg.BlockOverheadBytes <= 0 {
		cfg.BlockOverheadBytes = def.BlockOverheadBytes
	}
	s := &Shard{
		ID:            id,
		Leader:        leader,
		Validators:    validators,
		cfg:           cfg,
		sim:           sim,
		net:           net,
		ledger:        chain.NewLedger(id),
		consensusTime: stats.NewEWMA(0.3),
		arrivalRate:   stats.NewEWMA(0.3),
	}
	s.coldEstimate = s.estimateConsensusSeconds()
	s.initRound()
	return s
}

// Ledger exposes the shard's UTXO state to the protocol layer.
func (s *Shard) Ledger() *chain.Ledger { return s.ledger }

// QueueLen returns the current mempool length — the client-observable load
// signal feeding the L2S verification-rate estimate.
func (s *Shard) QueueLen() int { return len(s.queue) - s.head }

// Height returns the number of committed blocks.
func (s *Shard) Height() int { return s.height }

// BlockTxs returns the per-block transaction cap the shard resolved from
// its Config.
func (s *Shard) BlockTxs() int { return s.cfg.BlockTxs }

// RecentConsensusSeconds returns the smoothed recent block consensus
// latency, with a cold-start estimate derived from the network physics so
// the very first placements aren't blind.
func (s *Shard) RecentConsensusSeconds() float64 {
	return s.consensusTime.Value(s.coldEstimate)
}

// estimateConsensusSeconds predicts consensus latency for a full block from
// first principles: tree depth × (transfer + latency) + verification + vote
// return. Used before any block has committed.
func (s *Shard) estimateConsensusSeconds() float64 {
	depth := math.Ceil(math.Log2(float64(len(s.Validators) + 1)))
	if depth < 1 {
		depth = 1
	}
	hop := s.net.TransferTime(s.cfg.MaxBlockBytes).Seconds() + 0.1
	verify := (s.cfg.VerifyBase + time.Duration(s.cfg.BlockTxs)*s.cfg.VerifyPerTx).Seconds()
	return depth*hop + verify + 0.2
}

// Enqueue adds a work item to the mempool and starts consensus when a full
// block is available (or arms the idle timer for a partial block).
//
//optchain:hotpath the mempool grows amortized; an item is stored by value.
func (s *Shard) Enqueue(it Item) {
	s.queue = append(s.queue, it)
	s.queuedBytes += it.Bytes
	s.arrivalCount++
	s.maybeStart()
}

func (s *Shard) maybeStart() {
	if s.busy || s.QueueLen() == 0 {
		return
	}
	if s.QueueLen() >= s.cfg.BlockTxs || s.queuedBytes >= s.cfg.MaxBlockBytes-s.cfg.BlockOverheadBytes {
		s.startBlock()
		return
	}
	if !s.timerArmed {
		s.timerArmed = true
		s.idleTimer = s.sim.Schedule(s.batchWait(), "shard.blockTimer", func(*des.Simulator) {
			s.timerArmed = false
			if !s.busy && s.QueueLen() > 0 {
				s.startBlock()
			}
		})
	}
}

// batchWait estimates how long to wait for a full block at the recent
// arrival rate, bounded by MaxBlockWait. Batching amortizes the fixed
// consensus overhead (dissemination latency, vote and certificate rounds)
// over more transactions; cutting immediately at moderate load would halve
// effective capacity with half-empty blocks.
func (s *Shard) batchWait() time.Duration {
	rate := s.arrivalRate.Value(0)
	if rate <= 0 {
		return s.cfg.MaxBlockWait
	}
	missing := float64(s.cfg.BlockTxs - s.QueueLen())
	wait := time.Duration(missing / rate * float64(time.Second))
	if wait > s.cfg.MaxBlockWait {
		return s.cfg.MaxBlockWait
	}
	if wait < 10*time.Millisecond {
		return 10 * time.Millisecond
	}
	return wait
}

// startBlock cuts a block from the head of the mempool and runs consensus.
func (s *Shard) startBlock() {
	s.busy = true
	if s.timerArmed {
		s.idleTimer.Cancel()
		s.timerArmed = false
	}

	// The batch is the head of the mempool, in place: later arrivals append
	// past it (or to a grown copy), never into it.
	waiting := s.queue[s.head:]
	n := 0
	bytes := s.cfg.BlockOverheadBytes
	for n < s.cfg.BlockTxs && n < len(waiting) {
		it := &waiting[n]
		if n > 0 && bytes+it.Bytes > s.cfg.MaxBlockBytes {
			break
		}
		bytes += it.Bytes
		n++
	}
	batch := waiting[:n:n]
	s.head += n
	s.queuedBytes -= bytes - s.cfg.BlockOverheadBytes
	s.BlocksCut++

	start := s.sim.Now()
	if elapsed := (start - s.windowStart).Seconds(); elapsed > 0 && s.arrivalCount > 0 {
		s.arrivalRate.Observe(float64(s.arrivalCount) / elapsed)
	}
	s.arrivalCount = 0
	s.windowStart = start
	s.startRound(batch, bytes)
}

// finalizeBlock applies the round's items in order, notifies their owners,
// and immediately cuts the next block if work is waiting.
//
//optchain:hotpath the per-item loop of every block.
func (s *Shard) finalizeBlock() {
	batch := s.round.batch
	s.round.batch = nil
	s.consensusTime.Observe((s.sim.Now() - s.round.start).Seconds())
	s.height++
	s.ledger.CommitBlock(&chain.Block{Shard: s.ID, Height: s.height})
	for _, it := range batch {
		var err error
		if it.Work != nil {
			err = it.Work.Execute()
		}
		if err != nil && it.defers < it.MaxDefers {
			// Orphan-pool behavior: try again in a later block.
			it.defers++
			s.DeferredItems++
			s.Enqueue(it)
			continue
		}
		if err != nil {
			s.RejectedItems++
		} else {
			s.CommittedItems++
		}
		if it.Work != nil {
			it.Work.Done(s.sim, err)
		}
	}
	s.compact()
	s.busy = false
	// Block production continues immediately when a full block is waiting;
	// otherwise the adaptive batch timer (see batchWait) decides.
	if s.QueueLen() >= s.cfg.BlockTxs || s.queuedBytes >= s.cfg.MaxBlockBytes-s.cfg.BlockOverheadBytes {
		s.startBlock()
		return
	}
	s.maybeStart()
}

// compact moves the waiting items to the front once the executed ones ahead
// of them are as many, so each move is paid for by an executed item. It runs
// only after a block has executed: until then the block aliases the buffer.
func (s *Shard) compact() {
	if live := len(s.queue) - s.head; s.head >= live {
		copy(s.queue, s.queue[s.head:])
		clear(s.queue[live:])
		s.queue = s.queue[:live]
		s.head = 0
	}
}
