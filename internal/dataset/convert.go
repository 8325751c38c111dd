package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Real-trace conversion: published Bitcoin trace excerpts identify
// transactions by txid hash and reference outpoints as txid:vout. The
// stream formats here (.tan binary, text interchange) use positional
// references instead — transaction i spends an output of an earlier
// transaction j < i. ConvertCSV and ConvertJSON bridge the two: they map
// each txid to its stream position in file order and rewrite every
// outpoint to a positional reference, validating referential integrity
// (AppendTx's rules) as they go. The result feeds `replay:` directly via
// tangen -from-csv / -from-json (the pipeline is documented in
// SCENARIOS.md).
//
// CSV layout (one transaction per record, header optional):
//
//	txid,inputs,outputs
//	aa01,,50000
//	bb02,aa01:0,30000|19000
//	cc03,bb02:0|bb02:1,48000
//
// inputs is a '|'-separated list of txid:vout outpoints (empty for a
// coinbase); outputs is a '|'-separated list of output values.
//
// JSON layout — either one array or a stream of objects (JSONL), each:
//
//	{"txid": "bb02", "inputs": [{"txid": "aa01", "vout": 0}], "outputs": [30000, 19000]}
//
// "hash" is accepted as an alias for "txid", and "index" for "vout".
//
// Excerpts cut out of a chain necessarily contain inputs whose parents lie
// outside the excerpt. By default such a reference is an error naming the
// txid; with SkipForeign those inputs are dropped (the spend is treated as
// externally funded), which keeps the excerpt's internal lineage intact —
// the structure the placement algorithms consume.

// ConvertConfig parameterizes real-trace conversion.
type ConvertConfig struct {
	// SkipForeign drops inputs that reference a txid outside the excerpt
	// (instead of failing). A transaction all of whose inputs are foreign
	// becomes coinbase-like.
	SkipForeign bool
}

// ErrForeignInput reports an input whose parent transaction is not in the
// converted excerpt (see ConvertConfig.SkipForeign).
var ErrForeignInput = fmt.Errorf("%w: input references a transaction outside the excerpt", ErrBadFormat)

// converter accumulates the positional rewrite.
type converter struct {
	cfg ConvertConfig
	d   *Dataset
	pos map[string]int32 // txid -> stream position
	// Foreign counts the inputs dropped under SkipForeign.
	foreign int64
	tx      Tx
}

func newConverter(cfg ConvertConfig) *converter {
	return &converter{cfg: cfg, d: New(1024), pos: make(map[string]int32)}
}

// add appends one transaction identified by txid, spending the given
// (parent txid, vout) outpoints and creating outputs with the given values,
// which the dataset keeps exactly.
func (c *converter) add(txid string, inputs [][2]string, outVals []int64) error {
	txid = strings.TrimSpace(txid)
	if txid == "" {
		return fmt.Errorf("%w: tx %d has an empty txid", ErrBadFormat, c.d.Len())
	}
	if _, dup := c.pos[txid]; dup {
		return fmt.Errorf("%w: duplicate txid %q", ErrBadFormat, txid)
	}
	tx := &c.tx
	tx.Inputs = tx.Inputs[:0]
	for _, in := range inputs {
		// The vout must parse even for foreign inputs: garbage there means
		// the excerpt is malformed, not merely cut, and SkipForeign must
		// not swallow it.
		vout, err := strconv.ParseUint(in[1], 10, 32)
		if err != nil {
			return fmt.Errorf("%w: tx %q input %s: bad vout %q", ErrBadFormat, txid, in[0], in[1])
		}
		parent, ok := c.pos[in[0]]
		if !ok {
			if c.cfg.SkipForeign {
				c.foreign++
				continue
			}
			return fmt.Errorf("%w: tx %q input %s:%s (use -skip-foreign to drop out-of-excerpt inputs)",
				ErrForeignInput, txid, in[0], in[1])
		}
		if int(vout) >= c.d.NumOutputs(int(parent)) {
			return fmt.Errorf("%w: tx %q spends %s:%d but %q has %d outputs",
				ErrBadFormat, txid, in[0], vout, in[0], c.d.NumOutputs(int(parent)))
		}
		tx.Inputs = append(tx.Inputs, Input{Tx: int(parent), Index: uint32(vout)})
	}
	if len(outVals) == 0 {
		return fmt.Errorf("%w: tx %q has no outputs", ErrBadFormat, txid)
	}
	tx.OutVals, tx.Outputs, tx.Value = outVals, len(outVals), 0
	for _, v := range outVals {
		tx.Value += v
	}
	i := c.d.Len()
	if err := c.d.AppendTx(tx); err != nil {
		return fmt.Errorf("%w: tx %q: %v", ErrBadFormat, txid, err)
	}
	c.pos[txid] = int32(i)
	return nil
}

// finish returns the converted dataset and the dropped-foreign-input count.
func (c *converter) finish() (*Dataset, int64, error) {
	if c.d.Len() == 0 {
		return nil, 0, fmt.Errorf("%w: excerpt contains no transactions", ErrBadFormat)
	}
	return c.d, c.foreign, nil
}

// splitOutpoints parses a '|'-separated txid:vout list.
func splitOutpoints(s string) ([][2]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out [][2]string
	for _, tok := range strings.Split(s, "|") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		colon := strings.LastIndexByte(tok, ':')
		if colon <= 0 || colon == len(tok)-1 {
			return nil, fmt.Errorf("%w: outpoint %q is not txid:vout", ErrBadFormat, tok)
		}
		out = append(out, [2]string{strings.TrimSpace(tok[:colon]), strings.TrimSpace(tok[colon+1:])})
	}
	return out, nil
}

// ConvertCSV converts a CSV trace excerpt (see the package comment for the
// layout) into a Dataset, returning the number of foreign inputs dropped
// under cfg.SkipForeign.
func ConvertCSV(r io.Reader, cfg ConvertConfig) (*Dataset, int64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated per record for a better message
	cr.TrimLeadingSpace = true
	cr.Comment = '#'
	conv := newConverter(cfg)
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		if first {
			first = false
			// A header row is recognized by its first column name.
			if strings.EqualFold(strings.TrimSpace(rec[0]), "txid") || strings.EqualFold(strings.TrimSpace(rec[0]), "hash") {
				continue
			}
		}
		if len(rec) != 3 {
			return nil, 0, fmt.Errorf("%w: record %v has %d fields, want 3 (txid,inputs,outputs)",
				ErrBadFormat, rec, len(rec))
		}
		inputs, err := splitOutpoints(rec[1])
		if err != nil {
			return nil, 0, fmt.Errorf("tx %q: %w", rec[0], err)
		}
		var outVals []int64
		for _, tok := range strings.Split(rec[2], "|") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: tx %q: bad output value %q", ErrBadFormat, rec[0], tok)
			}
			outVals = append(outVals, v)
		}
		if err := conv.add(rec[0], inputs, outVals); err != nil {
			return nil, 0, err
		}
	}
	return conv.finish()
}

// jsonTx is the JSON trace-excerpt transaction shape. Output values decode
// as json.Number so fractional or precision-losing values fail loudly (the
// CSV path fails the same way via ParseInt) instead of truncating.
type jsonTx struct {
	TxID   string        `json:"txid"`
	Hash   string        `json:"hash"` // alias for txid
	Inputs []jsonIn      `json:"inputs"`
	Out    []json.Number `json:"outputs"`
}

type jsonIn struct {
	TxID string `json:"txid"`
	Hash string `json:"hash"` // alias for txid
	Vout uint32 `json:"vout"`
}

// UnmarshalJSON accepts "index" as an alias for "vout". An input carrying
// neither is rejected: silently defaulting to output 0 would convert a
// malformed excerpt (say, an export using a different key name) into a
// dataset with wrong lineage instead of failing loudly.
func (in *jsonIn) UnmarshalJSON(b []byte) error {
	var raw struct {
		TxID  string  `json:"txid"`
		Hash  string  `json:"hash"`
		Vout  *uint32 `json:"vout"`
		Index *uint32 `json:"index"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	in.TxID, in.Hash = raw.TxID, raw.Hash
	if strings.TrimSpace(in.id()) == "" {
		// An id-less input would otherwise look up as "" and be dropped as
		// foreign under SkipForeign — silent lineage corruption.
		return fmt.Errorf("input has no txid/hash field")
	}
	switch {
	case raw.Vout != nil:
		in.Vout = *raw.Vout
	case raw.Index != nil:
		in.Vout = *raw.Index
	default:
		return fmt.Errorf("input of %q has no vout/index field", in.id())
	}
	return nil
}

func (t jsonTx) id() string {
	if t.TxID != "" {
		return t.TxID
	}
	return t.Hash
}

func (in jsonIn) id() string {
	if in.TxID != "" {
		return in.TxID
	}
	return in.Hash
}

// ConvertJSON converts a JSON trace excerpt — a single array of
// transaction objects or a JSONL stream of them (see the package comment)
// — into a Dataset, returning the number of foreign inputs dropped under
// cfg.SkipForeign.
func ConvertJSON(r io.Reader, cfg ConvertConfig) (*Dataset, int64, error) {
	br := bufio.NewReader(r)
	conv := newConverter(cfg)
	addOne := func(t jsonTx) error {
		inputs := make([][2]string, 0, len(t.Inputs))
		for _, in := range t.Inputs {
			inputs = append(inputs, [2]string{
				strings.TrimSpace(in.id()),
				strconv.FormatUint(uint64(in.Vout), 10),
			})
		}
		outVals := make([]int64, 0, len(t.Out))
		for _, v := range t.Out {
			n, err := v.Int64()
			if err != nil {
				return fmt.Errorf("%w: tx %q: output value %q is not an integer amount",
					ErrBadFormat, t.id(), v.String())
			}
			outVals = append(outVals, n)
		}
		return conv.add(t.id(), inputs, outVals)
	}
	// Peek the first non-space byte: '[' selects array mode, '{' a JSONL
	// object stream.
	first, err := peekNonSpace(br)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	dec := json.NewDecoder(br)
	switch first {
	case '[':
		if _, err := dec.Token(); err != nil { // consume '['
			return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		for dec.More() {
			var t jsonTx
			if err := dec.Decode(&t); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
			}
			if err := addOne(t); err != nil {
				return nil, 0, err
			}
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		// Trailing content after the array (say, a second concatenated
		// export) would otherwise convert to a silently truncated excerpt.
		if _, err := dec.Token(); err != io.EOF {
			return nil, 0, fmt.Errorf("%w: trailing data after the transaction array", ErrBadFormat)
		}
	case '{':
		for {
			var t jsonTx
			if err := dec.Decode(&t); err == io.EOF {
				break
			} else if err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
			}
			if err := addOne(t); err != nil {
				return nil, 0, err
			}
		}
	default:
		return nil, 0, fmt.Errorf("%w: expected a JSON array or object stream, got %q", ErrBadFormat, first)
	}
	return conv.finish()
}

// peekNonSpace returns the first non-whitespace byte without consuming it.
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		return b, nil
	}
}
