package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const convertCSV = `txid,inputs,outputs
aa01,,5000000000
bb02,aa01:0,3000000000|1900000000
cc03,bb02:0|bb02:1,4800000000
`

func TestConvertCSV(t *testing.T) {
	d, foreign, err := ConvertCSV(strings.NewReader(convertCSV), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if foreign != 0 {
		t.Fatalf("foreign = %d", foreign)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	if !d.IsCoinbase(0) || d.NumOutputs(0) != 1 {
		t.Fatalf("tx0: coinbase=%v outs=%d", d.IsCoinbase(0), d.NumOutputs(0))
	}
	if d.NumInputs(1) != 1 || d.NumOutputs(1) != 2 {
		t.Fatalf("tx1: ins=%d outs=%d", d.NumInputs(1), d.NumOutputs(1))
	}
	// Exact per-output values survive (no even-split convention).
	var tx Tx
	d.ReadTx(1, &tx)
	if len(tx.OutVals) != 2 || tx.OutVals[0] != 3000000000 || tx.OutVals[1] != 1900000000 || tx.Value != 4900000000 {
		t.Fatalf("tx1 values = %v (sum %d)", tx.OutVals, tx.Value)
	}
	if d.NumInputs(2) != 2 {
		t.Fatalf("tx2 ins = %d", d.NumInputs(2))
	}
	// The conversion must round-trip through the binary codec (the replay:
	// pipeline).
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip len = %d", back.Len())
	}
}

func TestConvertCSVForeignInput(t *testing.T) {
	in := "aa01,,500\nbb02,ffff:0|aa01:0,400\n"
	_, _, err := ConvertCSV(strings.NewReader(in), ConvertConfig{})
	if !errors.Is(err, ErrForeignInput) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "ffff") {
		t.Fatalf("error does not name the foreign txid: %v", err)
	}
	d, foreign, err := ConvertCSV(strings.NewReader(in), ConvertConfig{SkipForeign: true})
	if err != nil {
		t.Fatal(err)
	}
	if foreign != 1 {
		t.Fatalf("foreign = %d", foreign)
	}
	if d.NumInputs(1) != 1 {
		t.Fatalf("tx1 ins = %d (foreign input not dropped)", d.NumInputs(1))
	}
}

func TestConvertCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"duplicate txid":  "aa,,500\naa,,400\n",
		"bad vout":        "aa,,500\nbb,aa:x,400\n",
		"vout range":      "aa,,500\nbb,aa:3,400\n",
		"no outputs":      "aa,,\n",
		"future self":     "aa,aa:0,500\n",
		"field count":     "aa,500\n",
		"bad value":       "aa,,xyz\n",
		"empty":           "",
		"negative output": "aa,,-5\n",
	} {
		if _, _, err := ConvertCSV(strings.NewReader(in), ConvertConfig{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const convertJSONArray = `[
  {"txid": "aa01", "outputs": [5000000000]},
  {"txid": "bb02", "inputs": [{"txid": "aa01", "vout": 0}], "outputs": [3000000000, 1900000000]},
  {"hash": "cc03", "inputs": [{"hash": "bb02", "index": 0}, {"txid": "bb02", "vout": 1}], "outputs": [4800000000]}
]`

func TestConvertJSONArray(t *testing.T) {
	d, _, err := ConvertJSON(strings.NewReader(convertJSONArray), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.NumInputs(2) != 2 {
		t.Fatalf("len=%d tx2ins=%d", d.Len(), d.NumInputs(2))
	}
}

func TestConvertJSONLMatchesCSV(t *testing.T) {
	jsonl := `{"txid": "aa01", "outputs": [5000000000]}
{"txid": "bb02", "inputs": [{"txid": "aa01", "vout": 0}], "outputs": [3000000000, 1900000000]}
{"txid": "cc03", "inputs": [{"txid": "bb02", "vout": 0}, {"txid": "bb02", "vout": 1}], "outputs": [4800000000]}
`
	dj, _, err := ConvertJSON(strings.NewReader(jsonl), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dc, _, err := ConvertCSV(strings.NewReader(convertCSV), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var bj, bc bytes.Buffer
	if err := dj.Encode(&bj); err != nil {
		t.Fatal(err)
	}
	if err := dc.Encode(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bj.Bytes(), bc.Bytes()) {
		t.Fatal("JSONL and CSV conversions of the same excerpt differ")
	}
}

func TestConvertJSONRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"scalar":            `42`,
		"truncated":         `[{"txid": "aa", "outputs": [5]}`,
		"empty":             ``,
		"fractional output": `[{"txid": "aa", "outputs": [0.5]}]`,
		"exponent output":   `[{"txid": "aa", "outputs": [1e30]}]`,
		"input without vout": `[{"txid": "aa", "outputs": [10, 20]},
			{"txid": "bb", "inputs": [{"txid": "aa"}], "outputs": [5]}]`,
		"trailing array": `[{"txid": "aa", "outputs": [5]}][{"txid": "bb", "outputs": [5]}]`,
	} {
		if _, _, err := ConvertJSON(strings.NewReader(in), ConvertConfig{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConvertCSVSkipForeignStillRejectsBadVout(t *testing.T) {
	// A garbage vout on a foreign input means the excerpt is malformed,
	// not merely cut: SkipForeign must not swallow it.
	in := "aa,,500\nbb,zz99:notanumber,400\n"
	if _, _, err := ConvertCSV(strings.NewReader(in), ConvertConfig{SkipForeign: true}); err == nil {
		t.Fatal("garbage vout on a foreign input accepted under SkipForeign")
	}
}

func TestConvertJSONRejectsIDlessInput(t *testing.T) {
	// An input with neither txid nor hash must fail — under SkipForeign it
	// would otherwise be dropped as "foreign", corrupting lineage silently.
	in := `[{"txid": "aa", "outputs": [10]},
		{"txid": "bb", "inputs": [{"prev_txid": "aa", "vout": 0}], "outputs": [5]}]`
	for _, skip := range []bool{false, true} {
		if _, _, err := ConvertJSON(strings.NewReader(in), ConvertConfig{SkipForeign: skip}); err == nil {
			t.Fatalf("id-less input accepted (SkipForeign=%v)", skip)
		}
	}
}
