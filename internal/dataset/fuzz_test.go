package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// craft builds a stream from the magic header plus uvarint fields.
func craft(fields ...uint64) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	var tmp [binary.MaxVarintLen64]byte
	for _, f := range fields {
		n := binary.PutUvarint(tmp[:], f)
		buf.Write(tmp[:n])
	}
	return buf.Bytes()
}

func TestDecodeZeroOutputsError(t *testing.T) {
	// One transaction: 0 inputs, then 0 outputs.
	_, err := Decode(bytes.NewReader(craft(1, 0, 0)))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "zero outputs") {
		t.Fatalf("err = %q, want an explicit zero-outputs message", err)
	}
	if strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("err = %q still formats a nil error", err)
	}
}

func TestDecodeImplausibleCounts(t *testing.T) {
	// A ~20-byte stream claiming 2^60 inputs must be rejected up front with
	// a clear message, not spin reading garbage until a misleading EOF.
	_, err := Decode(bytes.NewReader(craft(1, 1<<60)))
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "implausible input count") {
		t.Fatalf("huge nIn err = %v", err)
	}
	// Same for outputs: 0 inputs, then 2^60 outputs.
	_, err = Decode(bytes.NewReader(craft(1, 0, 1<<60)))
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "implausible output count") {
		t.Fatalf("huge nOut err = %v", err)
	}
}

func TestAppendTxValidates(t *testing.T) {
	d := New(4)
	if err := d.AppendTx(&Tx{Outputs: 2, Value: 100}); err != nil {
		t.Fatalf("coinbase append: %v", err)
	}
	if err := d.AppendTx(&Tx{Inputs: []Input{{Tx: 0, Index: 1}}, Outputs: 1, Value: 40}); err != nil {
		t.Fatalf("spend append: %v", err)
	}
	if err := d.AppendTx(&Tx{Inputs: []Input{{Tx: 0}}, Outputs: 2, Value: 5, OutVals: []int64{4, 1}}); err != nil {
		t.Fatalf("exact-values append: %v", err)
	}
	for name, tx := range map[string]Tx{
		"future reference":         {Inputs: []Input{{Tx: 5}}, Outputs: 1, Value: 1},
		"negative reference":       {Inputs: []Input{{Tx: -1}}, Outputs: 1, Value: 1},
		"out-of-range output slot": {Inputs: []Input{{Tx: 0, Index: 9}}, Outputs: 1, Value: 1},
		"zero outputs":             {},
		"negative sum":             {Outputs: 1, Value: -1},
		"values for other outputs": {Outputs: 2, Value: 1, OutVals: []int64{1}},
		"values off the sum":       {Outputs: 2, Value: 7, OutVals: []int64{4, 1}},
		"negative value":           {Outputs: 2, Value: 0, OutVals: []int64{1, -1}},
		"values overflowing int64": {Outputs: 2, Value: math.MinInt64, OutVals: []int64{math.MaxInt64, 1}},
	} {
		if err := d.AppendTx(&tx); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	var got Tx
	d.ReadTx(2, &got)
	if d.Len() != 3 || d.NumOutputs(0) != 2 || d.NumInputs(1) != 1 || got.Value != 5 || got.OutVals[0] != 4 {
		t.Fatalf("built dataset shape wrong: len=%d, tx 2 = %+v", d.Len(), got)
	}
}

// TestDecodeRefusesWrappingValues: a value above math.MaxInt64 would read
// back negative, and values whose sum overflows int64 would wrap the
// transaction's Value; Decode and DecodeStream refuse both.
func TestDecodeRefusesWrappingValues(t *testing.T) {
	for name, data := range map[string][]byte{
		"value 2^63":        craft(1, 0, 1, 1<<63),
		"value 2^64-1":      craft(1, 0, 1, math.MaxUint64),
		"sum past MaxInt64": craft(1, 0, 2, math.MaxInt64, 1),
	} {
		if d, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: Decode = %v, %v; want ErrBadFormat", name, d, err)
		}
		s, err := NewDecodeStream(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var tx Tx
		if s.Next(&tx) || !errors.Is(s.Err(), ErrBadFormat) {
			t.Errorf("%s: DecodeStream delivered %+v, Err %v", name, tx, s.Err())
		}
	}
	if _, err := Decode(bytes.NewReader(craft(1, 0, 2, math.MaxInt64-1, 1))); err != nil {
		t.Fatalf("a sum of exactly MaxInt64 refused: %v", err)
	}
}

// FuzzDecode proves Decode never panics on arbitrary bytes, and that
// anything it accepts re-encodes to a decodable fixed point.
func FuzzDecode(f *testing.F) {
	// Seed corpus: a valid encoding, truncations, and crafted headers.
	d, err := Generate(Config{N: 60, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := d.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("TANDS01\n"))
	f.Add(craft(1, 0, 0))
	f.Add(craft(1, 1<<60))
	f.Add(craft(1 << 62))
	f.Add(craft(3, 0, 1, 42, 1, 0, 0, 1, 7))
	f.Add(craft(1, 0, 1, 1<<63))
	f.Add(craft(1, 0, 2, math.MaxInt64, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned both a dataset and an error")
			}
			return
		}
		var re bytes.Buffer
		if err := got.Encode(&re); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		again, err := Decode(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round-trip length %d != %d", again.Len(), got.Len())
		}
	})
}
