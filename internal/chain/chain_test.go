package chain

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkTx(id TxID, inputs []Outpoint, values ...int64) *Transaction {
	outs := make([]Output, len(values))
	for i, v := range values {
		outs[i] = Output{Value: v}
	}
	return &Transaction{ID: id, Inputs: inputs, Outputs: outs}
}

func TestTxIDHashDeterministicAndSpread(t *testing.T) {
	if TxID(7).Hash() != TxID(7).Hash() {
		t.Fatal("hash not deterministic")
	}
	buckets := make(map[uint64]int)
	const k = 16
	for i := TxID(1); i <= 16000; i++ {
		buckets[i.Hash()%k]++
	}
	for b, n := range buckets {
		if n < 700 || n > 1300 {
			t.Fatalf("bucket %d has %d of 16000 (poor spread)", b, n)
		}
	}
}

func TestInputTxsDeduplicates(t *testing.T) {
	tx := mkTx(10, []Outpoint{{Tx: 3, Index: 0}, {Tx: 3, Index: 1}, {Tx: 5, Index: 0}}, 1)
	got := tx.InputTxs()
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("InputTxs = %v", got)
	}
}

func TestCoinbase(t *testing.T) {
	cb := mkTx(1, nil, 50)
	if !cb.IsCoinbase() {
		t.Fatal("coinbase not detected")
	}
	if cb.InputTxs() != nil {
		t.Fatal("coinbase has input txs")
	}
	spend := mkTx(2, []Outpoint{{Tx: 1, Index: 0}}, 49)
	if spend.IsCoinbase() {
		t.Fatal("spend detected as coinbase")
	}
}

func TestSizeBytesModel(t *testing.T) {
	tx := mkTx(9, []Outpoint{{Tx: 1}, {Tx: 2}}, 1, 2)
	want := 10 + 2*148 + 2*34
	if got := tx.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestLedgerSameShardLifecycle(t *testing.T) {
	l := NewLedger(0)
	cb := mkTx(1, nil, 100)
	if err := l.AddOutputs(cb); err != nil {
		t.Fatal(err)
	}
	if !l.HasUTXO(Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("coinbase output missing")
	}
	spend := mkTx(2, []Outpoint{{Tx: 1, Index: 0}}, 60, 39)
	if err := l.LockAndSpend(spend.ID, spend.Inputs); err != nil {
		t.Fatal(err)
	}
	if err := l.AddOutputs(spend); err != nil {
		t.Fatal(err)
	}
	if l.HasUTXO(Outpoint{Tx: 1, Index: 0}) {
		t.Fatal("spent output still live")
	}
	if !l.Committed(2) || !l.Committed(1) {
		t.Fatal("commit not recorded")
	}
	if l.UTXOCount() != 2 {
		t.Fatalf("UTXOCount = %d, want 2", l.UTXOCount())
	}
}

func TestLedgerDoubleSpendRejected(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100)); err != nil {
		t.Fatal(err)
	}
	op := Outpoint{Tx: 1, Index: 0}
	if err := l.Lock(2, []Outpoint{op}); err != nil {
		t.Fatal(err)
	}
	err := l.Lock(3, []Outpoint{op})
	if !errors.Is(err, ErrDoubleLock) {
		t.Fatalf("second lock err = %v, want ErrDoubleLock", err)
	}
	if err := l.SpendLocked(2, []Outpoint{op}); err != nil {
		t.Fatal(err)
	}
	err = l.Lock(3, []Outpoint{op})
	if !errors.Is(err, ErrMissingUTXO) {
		t.Fatalf("lock after spend err = %v, want ErrMissingUTXO", err)
	}
}

func TestLedgerLockIsAllOrNothing(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100, 100)); err != nil {
		t.Fatal(err)
	}
	ops := []Outpoint{{Tx: 1, Index: 0}, {Tx: 99, Index: 0}} // second missing
	err := l.Lock(5, ops)
	if !errors.Is(err, ErrMissingUTXO) {
		t.Fatalf("err = %v", err)
	}
	// First outpoint must have been released.
	if err := l.Lock(6, []Outpoint{{Tx: 1, Index: 0}}); err != nil {
		t.Fatalf("outpoint still locked after failed batch: %v", err)
	}
}

func TestLedgerLockIdempotentForSameSpender(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100)); err != nil {
		t.Fatal(err)
	}
	op := []Outpoint{{Tx: 1, Index: 0}}
	if err := l.Lock(2, op); err != nil {
		t.Fatal(err)
	}
	if err := l.Lock(2, op); err != nil {
		t.Fatalf("re-lock by same spender: %v", err)
	}
}

func TestLedgerAbortReleasesLocks(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100)); err != nil {
		t.Fatal(err)
	}
	op := []Outpoint{{Tx: 1, Index: 0}}
	if err := l.Lock(2, op); err != nil {
		t.Fatal(err)
	}
	// The ledger holds states by value: each transition below is visible
	// only if it was written back to the map.
	if l.HasUTXO(op[0]) {
		t.Fatal("locked outpoint reads as unlocked")
	}
	l.Abort(2, op)
	if v, ok := l.OutputValue(op[0]); !l.HasUTXO(op[0]) || !ok || v != 100 {
		t.Fatalf("after abort: unlocked=%v live=%v value=%d", l.HasUTXO(op[0]), ok, v)
	}
	if err := l.Lock(3, op); err != nil {
		t.Fatalf("lock by another spender after abort: %v", err)
	}
	if err := l.SpendLocked(2, op); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("aborted spender still holds the lock: %v", err)
	}
	// Abort by a non-holder must not release.
	l.Abort(2, op)
	if err := l.SpendLocked(3, op); err != nil {
		t.Fatalf("foreign abort released lock: %v", err)
	}
}

func TestSpendLockedRequiresLock(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100)); err != nil {
		t.Fatal(err)
	}
	err := l.SpendLocked(2, []Outpoint{{Tx: 1, Index: 0}})
	if !errors.Is(err, ErrNotLocked) {
		t.Fatalf("err = %v, want ErrNotLocked", err)
	}
}

func TestAddOutputsValidation(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.AddOutputs(mkTx(1, nil, 5)); !errors.Is(err, ErrDuplicateTx) {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := l.AddOutputs(mkTx(2, nil)); !errors.Is(err, ErrEmptyOutputs) {
		t.Fatalf("empty outputs err = %v", err)
	}
	if err := l.AddOutputs(mkTx(3, nil, -1)); !errors.Is(err, ErrNegativeValue) {
		t.Fatalf("negative err = %v", err)
	}
}

func TestCheckValues(t *testing.T) {
	vals := map[Outpoint]int64{{Tx: 1, Index: 0}: 100}
	resolve := func(op Outpoint) (int64, bool) { v, ok := vals[op]; return v, ok }

	ok := mkTx(2, []Outpoint{{Tx: 1, Index: 0}}, 60, 39)
	if err := CheckValues(ok, resolve); err != nil {
		t.Fatal(err)
	}
	over := mkTx(3, []Outpoint{{Tx: 1, Index: 0}}, 200)
	if err := CheckValues(over, resolve); !errors.Is(err, ErrValueCreated) {
		t.Fatalf("err = %v, want ErrValueCreated", err)
	}
	missing := mkTx(4, []Outpoint{{Tx: 9, Index: 0}}, 1)
	if err := CheckValues(missing, resolve); !errors.Is(err, ErrMissingUTXO) {
		t.Fatalf("err = %v, want ErrMissingUTXO", err)
	}
	if err := CheckValues(mkTx(5, nil, 50), resolve); err != nil {
		t.Fatalf("coinbase mints freely, got %v", err)
	}
}

// Property: under any interleaving of lock/abort/spend attempts by random
// spenders, a UTXO is consumed at most once, and only by the holder of its
// lock.
func TestPropertyNoDoubleSpend(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(0)
		const nOuts = 8
		vals := make([]int64, nOuts)
		for i := range vals {
			vals[i] = 10
		}
		if err := l.AddOutputs(mkTx(1, nil, vals...)); err != nil {
			return false
		}
		spent := make(map[Outpoint]TxID)
		for _, b := range opsRaw {
			spender := TxID(2 + int64(b%5))
			op := Outpoint{Tx: 1, Index: uint32(rng.Intn(nOuts))}
			switch b % 3 {
			case 0:
				_ = l.Lock(spender, []Outpoint{op})
			case 1:
				l.Abort(spender, []Outpoint{op})
			case 2:
				if err := l.SpendLocked(spender, []Outpoint{op}); err == nil {
					if prev, dup := spent[op]; dup {
						t.Logf("outpoint %v spent twice: %d then %d", op, prev, spender)
						return false
					}
					spent[op] = spender
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitBlockAdvancesHeight(t *testing.T) {
	l := NewLedger(3)
	if l.Shard() != 3 {
		t.Fatalf("Shard = %d", l.Shard())
	}
	l.CommitBlock(&Block{Shard: 3, Height: 0})
	l.CommitBlock(&Block{Shard: 3, Height: 1})
	if l.Height() != 2 {
		t.Fatalf("Height = %d, want 2", l.Height())
	}
}

func TestLedgerStatsCounters(t *testing.T) {
	l := NewLedger(0)
	if err := l.AddOutputs(mkTx(1, nil, 10)); err != nil {
		t.Fatal(err)
	}
	op := []Outpoint{{Tx: 1, Index: 0}}
	_ = l.Lock(2, op)
	l.Abort(2, op)
	locks, aborts, commits := l.Stats()
	if locks != 1 || aborts != 1 || commits != 1 {
		t.Fatalf("stats = %d/%d/%d", locks, aborts, commits)
	}
}

func TestGrouperSplit(t *testing.T) {
	home := map[TxID]int{1: 0, 2: 1, 3: 0, 4: 2}
	g := Grouper{Locate: func(id TxID) int { return home[id] }}
	op := func(tx TxID, idx uint32) Outpoint { return Outpoint{Tx: tx, Index: idx} }

	same := mkTx(9, []Outpoint{op(1, 0), op(3, 1)}, 5)
	if got := g.Split(same, 0); got != nil {
		t.Fatalf("same-shard split = %v, want nil", got)
	}
	if got := g.Split(mkTx(9, nil, 5), 0); got != nil {
		t.Fatalf("coinbase split = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() { g.Split(same, 0) }); n != 0 {
		t.Fatalf("same-shard split allocates %v times", n)
	}

	// One foreign shard is already cross-shard; groups come in
	// first-appearance order with their outpoints in input order.
	if got := g.Split(same, 1); len(got) != 1 || got[0].Shard != 0 || len(got[0].Ops) != 2 {
		t.Fatalf("single foreign group = %v", got)
	}
	cross := mkTx(9, []Outpoint{op(2, 0), op(1, 0), op(4, 0), op(2, 1), op(3, 0)}, 5)
	got := g.Split(cross, 0)
	want := []InputGroup{
		{Shard: 1, Ops: []Outpoint{op(2, 0), op(2, 1)}},
		{Shard: 0, Ops: []Outpoint{op(1, 0), op(3, 0)}},
		{Shard: 2, Ops: []Outpoint{op(4, 0)}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	// The groups share one array but cannot grow into each other.
	_ = append(got[0].Ops, op(7, 7))
	if got[1].Ops[0] != op(1, 0) {
		t.Fatal("appending to one group overwrote the next")
	}
}
