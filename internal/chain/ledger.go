package chain

import (
	"errors"
	"fmt"
)

// Validation and locking errors. Protocol code matches with errors.Is.
var (
	ErrMissingUTXO   = errors.New("chain: referenced UTXO does not exist")
	ErrSpentUTXO     = errors.New("chain: referenced UTXO already spent or locked")
	ErrNotLocked     = errors.New("chain: UTXO is not locked by this transaction")
	ErrValueCreated  = errors.New("chain: outputs exceed inputs")
	ErrDuplicateTx   = errors.New("chain: transaction already committed")
	ErrWrongShard    = errors.New("chain: UTXO not managed by this shard")
	ErrDoubleLock    = errors.New("chain: UTXO locked by a different transaction")
	ErrEmptyOutputs  = errors.New("chain: transaction has no outputs")
	ErrNegativeValue = errors.New("chain: negative output value")
)

// utxoState tracks one unspent output and, transiently, the cross-shard lock
// holding it. The ledger keeps it by value: a map without pointers in key or
// element is one the garbage collector does not scan, and an output costs no
// allocation of its own. Whoever changes a state writes it back.
type utxoState struct {
	value    int64
	lockedBy TxID // 0 when unlocked; valid TxIDs are >= 1 in this codebase
}

// Ledger is the state one shard maintains: the UTXOs created by transactions
// placed in the shard, plus the set of committed transactions. It implements
// the input-shard side of OmniLedger's atomic commit: Lock marks inputs
// spent-pending and yields a proof-of-acceptance; Abort reverses it.
//
// Ledger is not safe for concurrent use; in the discrete-event simulation
// each shard's events run on a single logical timeline.
type Ledger struct {
	shard     int
	utxos     map[Outpoint]utxoState
	committed map[TxID]struct{}
	height    int

	// pendingSpend holds optimistic consumptions of outputs that have not
	// been created yet (see ConsumeOptimistic). When the output appears via
	// AddOutputs it is consumed immediately.
	pendingSpend map[Outpoint]TxID

	// counters for metrics
	locks, aborts, commits int64
}

// NewLedger returns an empty ledger for the given shard.
func NewLedger(shard int) *Ledger {
	return &Ledger{
		shard:        shard,
		utxos:        make(map[Outpoint]utxoState),
		committed:    make(map[TxID]struct{}),
		pendingSpend: make(map[Outpoint]TxID),
	}
}

// Shard returns the shard this ledger belongs to.
func (l *Ledger) Shard() int { return l.shard }

// Height returns the number of blocks committed.
func (l *Ledger) Height() int { return l.height }

// UTXOCount returns the number of live (unspent, possibly locked) outputs.
func (l *Ledger) UTXOCount() int { return len(l.utxos) }

// Stats returns cumulative lock/abort/commit counters.
func (l *Ledger) Stats() (locks, aborts, commits int64) {
	return l.locks, l.aborts, l.commits
}

// HasUTXO reports whether the outpoint is live and unlocked.
func (l *Ledger) HasUTXO(op Outpoint) bool {
	st, ok := l.utxos[op]
	return ok && st.lockedBy == 0
}

// Committed reports whether tx has been committed on this shard.
func (l *Ledger) Committed(id TxID) bool {
	_, ok := l.committed[id]
	return ok
}

// Lock validates that all the given outpoints are live on this shard and
// locks them on behalf of spender. It is all-or-nothing: on any failure no
// outpoint remains newly locked and the error describes the first conflict.
// A second Lock by the same spender is idempotent.
func (l *Ledger) Lock(spender TxID, ops []Outpoint) error {
	locked := make([]Outpoint, 0, len(ops))
	for _, op := range ops {
		st, ok := l.utxos[op]
		if !ok {
			l.unlock(locked)
			return fmt.Errorf("lock %v for tx %d: %w", op, spender, ErrMissingUTXO)
		}
		switch st.lockedBy {
		case 0:
			st.lockedBy = spender
			l.utxos[op] = st
			locked = append(locked, op)
		case spender:
			// already ours; idempotent
		default:
			l.unlock(locked)
			return fmt.Errorf("lock %v for tx %d: %w (held by %d)", op, spender, ErrDoubleLock, st.lockedBy)
		}
	}
	l.locks++
	return nil
}

func (l *Ledger) unlock(ops []Outpoint) {
	for _, op := range ops {
		if st, ok := l.utxos[op]; ok {
			st.lockedBy = 0
			l.utxos[op] = st
		}
	}
}

// Abort releases locks held by spender on the given outpoints (the
// unlock-to-abort message). Unknown or unlocked outpoints are ignored.
func (l *Ledger) Abort(spender TxID, ops []Outpoint) {
	for _, op := range ops {
		if st, ok := l.utxos[op]; ok && st.lockedBy == spender {
			st.lockedBy = 0
			l.utxos[op] = st
		}
	}
	l.aborts++
}

// SpendLocked consumes outpoints previously locked by spender, removing them
// permanently. It is the input-shard finalization after the client gossips
// unlock-to-commit.
func (l *Ledger) SpendLocked(spender TxID, ops []Outpoint) error {
	for _, op := range ops {
		st, ok := l.utxos[op]
		if !ok {
			return fmt.Errorf("spend %v by tx %d: %w", op, spender, ErrMissingUTXO)
		}
		if st.lockedBy != spender {
			return fmt.Errorf("spend %v by tx %d: %w", op, spender, ErrNotLocked)
		}
	}
	for _, op := range ops {
		delete(l.utxos, op)
	}
	return nil
}

// LockAndSpend validates and immediately spends outpoints for a same-shard
// transaction (no cross-shard lock round needed).
func (l *Ledger) LockAndSpend(spender TxID, ops []Outpoint) error {
	if err := l.Lock(spender, ops); err != nil {
		return err
	}
	return l.SpendLocked(spender, ops)
}

// AddOutputs registers the outputs of a committed transaction as live UTXOs
// on this shard (the output-shard side of commit).
func (l *Ledger) AddOutputs(tx *Transaction) error {
	if _, dup := l.committed[tx.ID]; dup {
		return fmt.Errorf("tx %d: %w", tx.ID, ErrDuplicateTx)
	}
	if len(tx.Outputs) == 0 {
		return fmt.Errorf("tx %d: %w", tx.ID, ErrEmptyOutputs)
	}
	for _, o := range tx.Outputs {
		if o.Value < 0 {
			return fmt.Errorf("tx %d: %w", tx.ID, ErrNegativeValue)
		}
	}
	l.committed[tx.ID] = struct{}{}
	for i, o := range tx.Outputs {
		op := Outpoint{Tx: tx.ID, Index: uint32(i)}
		if _, claimed := l.pendingSpend[op]; claimed {
			// An optimistic spender got here first: the output is born
			// consumed and never becomes visible as a UTXO.
			delete(l.pendingSpend, op)
			continue
		}
		l.utxos[op] = utxoState{value: o.Value}
	}
	l.commits++
	return nil
}

// ConsumeOptimistic spends the outpoints on behalf of spender, tolerating
// replay-order races: an outpoint whose creating transaction has not been
// applied yet is registered as a pending spend and consumed the moment
// AddOutputs creates it. This models the paper's simulation regime, where
// the replayed trace is globally valid and block timing — not arrival-order
// validation — is the quantity under study. Genuine conflicts (the output
// exists but is spent/locked, or another spender already holds the pending
// claim) still fail, all-or-nothing.
func (l *Ledger) ConsumeOptimistic(spender TxID, ops []Outpoint) error {
	// Validation pass.
	for _, op := range ops {
		if st, ok := l.utxos[op]; ok {
			if st.lockedBy != 0 && st.lockedBy != spender {
				return fmt.Errorf("consume %v by tx %d: %w (held by %d)", op, spender, ErrDoubleLock, st.lockedBy)
			}
			continue
		}
		if prev, claimed := l.pendingSpend[op]; claimed && prev != spender {
			return fmt.Errorf("consume %v by tx %d: %w (pending for %d)", op, spender, ErrSpentUTXO, prev)
		}
		if _, created := l.committed[op.Tx]; created {
			// The creating transaction was applied here and the output is
			// gone: a real double spend.
			return fmt.Errorf("consume %v by tx %d: %w", op, spender, ErrSpentUTXO)
		}
	}
	// Apply pass.
	for _, op := range ops {
		if _, ok := l.utxos[op]; ok {
			delete(l.utxos, op)
			continue
		}
		l.pendingSpend[op] = spender
	}
	l.locks++
	return nil
}

// ReleaseOptimistic undoes an optimistic consumption by spender (the abort
// path): pending claims are dropped; already-consumed outputs are restored
// with the given resolver supplying their values (nil restores value 0,
// which is acceptable on abort paths that retry the same outpoints).
func (l *Ledger) ReleaseOptimistic(spender TxID, ops []Outpoint, value func(Outpoint) int64) {
	for _, op := range ops {
		if holder, ok := l.pendingSpend[op]; ok && holder == spender {
			delete(l.pendingSpend, op)
			continue
		}
		if _, created := l.committed[op.Tx]; created {
			if _, live := l.utxos[op]; !live {
				v := int64(0)
				if value != nil {
					v = value(op)
				}
				l.utxos[op] = utxoState{value: v}
			}
		}
	}
	l.aborts++
}

// PendingSpends reports the number of outstanding optimistic claims.
func (l *Ledger) PendingSpends() int { return len(l.pendingSpend) }

// RestoreUTXO re-credits an outpoint that was consumed by an aborted
// cross-shard transfer (RapidChain un-yank). It is a no-op if the outpoint
// is currently live.
func (l *Ledger) RestoreUTXO(op Outpoint, value int64) {
	if _, ok := l.utxos[op]; ok {
		return
	}
	l.utxos[op] = utxoState{value: value}
}

// OutputValue returns the value of a live outpoint, or false if absent.
func (l *Ledger) OutputValue(op Outpoint) (int64, bool) {
	st, ok := l.utxos[op]
	if !ok {
		return 0, false
	}
	return st.value, true
}

// CommitBlock records block metadata (height advance). Transaction state
// changes happen through the Lock/Spend/AddOutputs calls above as the
// protocol drives them.
func (l *Ledger) CommitBlock(b *Block) {
	l.height++
}

// CheckValues verifies value conservation for tx given resolver access to
// input values: inputs must cover outputs unless the tx is coinbase.
// resolve returns the value of an outpoint (from whichever shard owns it).
func CheckValues(tx *Transaction, resolve func(Outpoint) (int64, bool)) error {
	if tx.IsCoinbase() {
		return nil
	}
	var in int64
	for _, op := range tx.Inputs {
		v, ok := resolve(op)
		if !ok {
			return fmt.Errorf("tx %d input %v: %w", tx.ID, op, ErrMissingUTXO)
		}
		in += v
	}
	if tx.OutputSum() > in {
		return fmt.Errorf("tx %d: %w (in=%d out=%d)", tx.ID, ErrValueCreated, in, tx.OutputSum())
	}
	return nil
}
