package dataset

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"optchain/internal/chain"
	"optchain/internal/txgraph"
)

func genSmall(t *testing.T, n int, seed int64) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.N = n
	cfg.Seed = seed
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateBasicShape(t *testing.T) {
	d := genSmall(t, 5000, 1)
	if d.Len() != 5000 {
		t.Fatalf("Len = %d", d.Len())
	}
	if !d.IsCoinbase(0) {
		t.Fatal("first tx must be coinbase")
	}
	for i := 0; i < d.Len(); i++ {
		if d.NumOutputs(i) == 0 {
			t.Fatalf("tx %d has no outputs", i)
		}
	}
}

// chainTx builds the ledger transaction of dataset transaction i from
// ReadTx.
func chainTx(d *Dataset, i int) *chain.Transaction {
	var tx Tx
	d.ReadTx(i, &tx)
	ct := &chain.Transaction{ID: d.TxID(i)}
	for _, in := range tx.Inputs {
		ct.Inputs = append(ct.Inputs, chain.Outpoint{Tx: d.TxID(in.Tx), Index: in.Index})
	}
	for _, v := range tx.OutVals {
		ct.Outputs = append(ct.Outputs, chain.Output{Value: v})
	}
	return ct
}

func TestGenerateReferentialIntegrity(t *testing.T) {
	d := genSmall(t, 3000, 7)
	type key struct {
		tx  int32
		idx uint32
	}
	spent := make(map[key]int)
	for i := 0; i < d.Len(); i++ {
		base := d.inOff[i]
		for j := int64(0); j < int64(d.NumInputs(i)); j++ {
			in := key{tx: d.inTx[base+j], idx: d.inIdx[base+j]}
			if int(in.tx) >= i {
				t.Fatalf("tx %d spends future tx %d", i, in.tx)
			}
			if in.idx >= uint32(d.NumOutputs(int(in.tx))) {
				t.Fatalf("tx %d spends nonexistent output %d:%d", i, in.tx, in.idx)
			}
			if prev, dup := spent[in]; dup {
				t.Fatalf("output %v double-spent by %d and %d", in, prev, i)
			}
			spent[in] = i
		}
	}
}

func TestGenerateValueConservation(t *testing.T) {
	d := genSmall(t, 2000, 3)
	// Replay through a single ledger: every tx must validate.
	l := chain.NewLedger(0)
	for i := 0; i < d.Len(); i++ {
		tx := chainTx(d, i)
		if err := chain.CheckValues(tx, l.OutputValue); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !tx.IsCoinbase() {
			if err := l.LockAndSpend(tx.ID, tx.Inputs); err != nil {
				t.Fatalf("tx %d spend: %v", i, err)
			}
		}
		if err := l.AddOutputs(tx); err != nil {
			t.Fatalf("tx %d outputs: %v", i, err)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := genSmall(t, 1000, 42)
	b := genSmall(t, 1000, 42)
	c := genSmall(t, 1000, 43)
	var bufA, bufB, bufC bytes.Buffer
	if err := a.Encode(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bufB); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(&bufC); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different datasets")
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Fatal("different seeds produced identical datasets")
	}
}

// The calibration target: paper Fig. 2 reports mean degree ≈ 2.3, 93.1% of
// in-degrees < 3 and 97.6% of out-degrees < 10 for the Bitcoin TaN network.
// We accept the generator if it lands in a loose band around those values.
func TestGenerateMatchesPaperDegreeShape(t *testing.T) {
	d := genSmall(t, 50_000, 1)
	g, err := d.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	c := g.TakeCensus()
	if c.AvgInDeg < 1.6 || c.AvgInDeg > 3.0 {
		t.Fatalf("average degree %.2f outside [1.6, 3.0] (paper: 2.3)", c.AvgInDeg)
	}
	inHist, outHist := g.DegreeHistograms()
	inCum := txgraph.CumulativeFraction(inHist)
	outCum := txgraph.CumulativeFraction(outHist)
	if inCum[2] < 0.80 {
		t.Fatalf("P(in<3) = %.3f, want >= 0.80 (paper: 0.931)", inCum[2])
	}
	last := len(outCum) - 1
	idx9 := 9
	if idx9 > last {
		idx9 = last
	}
	if outCum[idx9] < 0.90 {
		t.Fatalf("P(out<10) = %.3f, want >= 0.90 (paper: 0.976)", outCum[idx9])
	}
	// Power-law-ish: degree-1 dominates the in-degree distribution.
	if inHist[1] < inHist[2] {
		t.Fatalf("in-degree head not heavy: hist[1]=%d hist[2]=%d", inHist[1], inHist[2])
	}
}

func TestGenerateCoinbaseCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10_000
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coinbases := 0
	for i := 0; i < d.Len(); i++ {
		if d.IsCoinbase(i) {
			coinbases++
		}
	}
	// At least one per cadence window; extras allowed during warm-up.
	if coinbases < cfg.N/coinbaseEvery {
		t.Fatalf("coinbases = %d, want >= %d", coinbases, cfg.N/coinbaseEvery)
	}
	if coinbases > d.Len()/10 {
		t.Fatalf("coinbases = %d, too many (pool keeps draining)", coinbases)
	}
}

func TestTxMaterialization(t *testing.T) {
	d := genSmall(t, 500, 2)
	var tx Tx
	for i := 0; i < 20; i++ {
		d.ReadTx(i, &tx)
		if len(tx.Inputs) != d.NumInputs(i) || tx.Outputs != d.NumOutputs(i) || len(tx.OutVals) != tx.Outputs {
			t.Fatalf("tx %d arity mismatch", i)
		}
		if Index(d.TxID(i)) != i {
			t.Fatalf("Index(TxID) = %d, want %d", Index(d.TxID(i)), i)
		}
	}
}

func TestInputTxNodesDedup(t *testing.T) {
	d := genSmall(t, 2000, 5)
	var buf []txgraph.Node
	for i := 0; i < d.Len(); i++ {
		buf = d.InputTxNodes(i, buf)
		seen := make(map[txgraph.Node]bool, len(buf))
		for _, v := range buf {
			if seen[v] {
				t.Fatalf("tx %d has duplicate input node %d", i, v)
			}
			if int(v) >= i {
				t.Fatalf("tx %d references future node %d", i, v)
			}
			seen[v] = true
		}
	}
}

func TestBuildGraphConsistency(t *testing.T) {
	d := genSmall(t, 3000, 9)
	g, err := d.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != d.Len() {
		t.Fatalf("graph nodes = %d, want %d", g.NumNodes(), d.Len())
	}
	var buf []txgraph.Node
	for i := 0; i < d.Len(); i++ {
		buf = d.InputTxNodes(i, buf)
		if g.InDegree(txgraph.Node(i)) != len(buf) {
			t.Fatalf("tx %d graph in-degree %d, dataset %d", i, g.InDegree(txgraph.Node(i)), len(buf))
		}
	}
}

func TestSlice(t *testing.T) {
	d := genSmall(t, 1000, 4)
	s := d.Slice(100)
	if s.Len() != 100 {
		t.Fatalf("slice len = %d", s.Len())
	}
	for i := 0; i < 100; i++ {
		if s.NumInputs(i) != d.NumInputs(i) || s.NumOutputs(i) != d.NumOutputs(i) {
			t.Fatalf("slice diverges at %d", i)
		}
	}
	if got := d.Slice(5000).Len(); got != 1000 {
		t.Fatalf("over-long slice len = %d", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := genSmall(t, 1500, 11)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("decoded len = %d", got.Len())
	}
	var b1, b2 bytes.Buffer
	if err := d.Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("round trip not identical")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	// Forward reference: valid magic, 1 tx claiming an input from tx 5.
	var buf bytes.Buffer
	buf.WriteString("TANDS01\n")
	buf.Write([]byte{2})       // 2 txs
	buf.Write([]byte{0, 1, 5}) // tx0: 0 inputs, 1 output value 5
	buf.Write([]byte{1, 1, 0}) // tx1: 1 input referencing tx1 (self)
	if _, err := Decode(&buf); err == nil {
		t.Fatal("self-reference accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntraProb = 1.5
	if _, err := Generate(cfg); err == nil {
		t.Fatal("IntraProb above 1 accepted")
	}
}

// Property: any (n, seed) produces a dataset that builds a valid DAG and
// survives an encode/decode round trip.
func TestPropertyGenerateAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		cfg := DefaultConfig()
		cfg.N = int(nRaw)%2000 + 10
		cfg.Seed = seed
		d, err := Generate(cfg)
		if err != nil {
			return false
		}
		if _, err := d.BuildGraph(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		return err == nil && got.Len() == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeStreamMatchesDecode: the incremental decoder delivers exactly
// the transactions Decode materializes, including per-output values, and
// reports the declared count.
func TestDecodeStreamMatchesDecode(t *testing.T) {
	d, err := Generate(Config{N: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	s, err := NewDecodeStream(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != d.Len() {
		t.Fatalf("N() = %d, want %d", s.N(), d.Len())
	}
	re := New(d.Len())
	var tx Tx
	for s.Next(&tx) {
		var sum int64
		for _, v := range tx.OutVals {
			sum += v
		}
		if sum != tx.Value {
			t.Fatalf("OutVals sum %d != Value %d", sum, tx.Value)
		}
		if err := re.AppendTx(&tx); err != nil {
			t.Fatal(err)
		}
	}
	if s.Err() != nil {
		t.Fatalf("Err() = %v", s.Err())
	}
	var reEnc bytes.Buffer
	if err := re.Encode(&reEnc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), reEnc.Bytes()) {
		t.Fatal("stream-decoded dataset re-encodes differently")
	}
}

// TestDecodeStreamSurfacesTruncation: a mid-transaction EOF sets Err
// instead of silently ending the stream.
func TestDecodeStreamSurfacesTruncation(t *testing.T) {
	d, err := Generate(Config{N: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	s, err := NewDecodeStream(bytes.NewReader(enc.Bytes()[:enc.Len()/2]))
	if err != nil {
		t.Fatal(err)
	}
	var tx Tx
	n := 0
	for s.Next(&tx) {
		n++
	}
	if n == 0 || n >= 200 {
		t.Fatalf("decoded %d transactions from a half stream", n)
	}
	if !errors.Is(s.Err(), ErrBadFormat) {
		t.Fatalf("Err() = %v, want ErrBadFormat", s.Err())
	}
	// Next stays false after a failure.
	if s.Next(&tx) {
		t.Fatal("Next succeeded after a decode failure")
	}
}
