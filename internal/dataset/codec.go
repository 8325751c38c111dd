package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary stream format (all integers unsigned varints unless noted):
//
//	magic "TANDS01\n"
//	count N
//	per transaction:
//	  nIn, then nIn × (input tx index, output index)
//	  nOut, then nOut × output value
//
// The format is deliberately simple so real Bitcoin trace extracts can be
// converted to it with a few lines of scripting.

var magic = []byte("TANDS01\n")

// ErrBadFormat reports a stream that is not a dataset encoding.
var ErrBadFormat = errors.New("dataset: bad stream format")

// maxPerTxCount bounds the per-transaction input and output counts Decode
// accepts. Real Bitcoin transactions top out in the low thousands (block
// size bounds them); a crafted stream claiming, say, 2^60 inputs would
// otherwise spin reading garbage until EOF with a misleading error.
const maxPerTxCount = 1 << 20

// Encode writes the dataset to w.
func (d *Dataset) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(d.Len())); err != nil {
		return err
	}
	for i := 0; i < d.Len(); i++ {
		nIn := d.NumInputs(i)
		if err := put(uint64(nIn)); err != nil {
			return err
		}
		base := d.inOff[i]
		for j := 0; j < nIn; j++ {
			if err := put(uint64(d.inTx[base+int64(j)])); err != nil {
				return err
			}
			if err := put(uint64(d.inIdx[base+int64(j)])); err != nil {
				return err
			}
		}
		nOut := d.NumOutputs(i)
		if err := put(uint64(nOut)); err != nil {
			return err
		}
		vbase := d.outOff[i]
		for j := 0; j < nOut; j++ {
			if err := put(uint64(d.outVal[vbase+int64(j)])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeStream is the incremental form of Decode: one transaction per Next
// call, validated exactly like Decode (referential integrity, per-tx count
// bounds), with memory proportional to one output count per earlier
// transaction rather than the whole stream. It is how the replay workload
// scenario streams a recorded trace through a simulation without
// materializing it.
type DecodeStream struct {
	br        *bufio.Reader
	n, i      int
	outCounts []int32
	err       error
}

// NewDecodeStream reads and validates the stream header.
func NewDecodeStream(r io.Reader) (*DecodeStream, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head) != string(magic) {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	if n64 > 1<<31 {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadFormat, n64)
	}
	// The count is still attacker-controlled at this point: a 10-byte
	// stream claiming 2^31 transactions must not preallocate gigabytes.
	// Cap the capacity hint; state grows as real data arrives.
	hint := int(n64)
	if hint > 1<<20 {
		hint = 1 << 20
	}
	return &DecodeStream{br: br, n: int(n64), outCounts: make([]int32, 0, hint)}, nil
}

// N returns the transaction count the stream header declares.
func (s *DecodeStream) N() int { return s.n }

// Err returns the decode failure that ended the stream, or nil. Next
// returning false with a nil Err means the declared count was delivered.
func (s *DecodeStream) Err() error { return s.err }

// Next fills tx with the next transaction (InTx/InIdx/Outputs/Value, plus
// the exact per-output values in OutVals) and reports whether one was
// produced. The slices are owned by the caller-provided tx and reused
// between calls. A malformed transaction stops the stream; see Err.
func (s *DecodeStream) Next(tx *StreamTx) bool {
	if s.err != nil || s.i >= s.n {
		return false
	}
	i := s.i
	fail := func(format string, args ...any) bool {
		s.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFormat}, args...)...)
		return false
	}
	get := func() (uint64, error) { return binary.ReadUvarint(s.br) }
	nIn, err := get()
	if err != nil {
		return fail("tx %d: %v", i, err)
	}
	if nIn > maxPerTxCount {
		return fail("tx %d: implausible input count %d (max %d)", i, nIn, maxPerTxCount)
	}
	tx.InTx = tx.InTx[:0]
	tx.InIdx = tx.InIdx[:0]
	for j := uint64(0); j < nIn; j++ {
		txi, err := get()
		if err != nil {
			return fail("tx %d input: %v", i, err)
		}
		if txi >= uint64(i) {
			return fail("tx %d references future tx %d", i, txi)
		}
		oi, err := get()
		if err != nil {
			return fail("tx %d input idx: %v", i, err)
		}
		if oi >= uint64(s.outCounts[txi]) {
			return fail("tx %d references output %d:%d out of range", i, txi, oi)
		}
		tx.InTx = append(tx.InTx, int32(txi))
		tx.InIdx = append(tx.InIdx, uint32(oi))
	}
	nOut, err := get()
	if err != nil {
		return fail("tx %d outputs: %v", i, err)
	}
	if nOut == 0 {
		return fail("tx %d has zero outputs", i)
	}
	if nOut > maxPerTxCount {
		return fail("tx %d: implausible output count %d (max %d)", i, nOut, maxPerTxCount)
	}
	tx.OutVals = tx.OutVals[:0]
	tx.Value = 0
	for j := uint64(0); j < nOut; j++ {
		v, err := get()
		if err != nil {
			return fail("tx %d value: %v", i, err)
		}
		tx.OutVals = append(tx.OutVals, int64(v))
		tx.Value += int64(v)
	}
	tx.Outputs = int(nOut)
	s.outCounts = append(s.outCounts, int32(nOut))
	s.i++
	return true
}

// Decode reads a dataset written by Encode. It validates referential
// integrity: inputs must reference earlier transactions and existing output
// indices.
func Decode(r io.Reader) (*Dataset, error) {
	s, err := NewDecodeStream(r)
	if err != nil {
		return nil, err
	}
	hint := s.n
	if hint > 1<<20 {
		hint = 1 << 20
	}
	d := newDataset(hint)
	var tx StreamTx
	for s.Next(&tx) {
		d.inTx = append(d.inTx, tx.InTx...)
		d.inIdx = append(d.inIdx, tx.InIdx...)
		d.inOff = append(d.inOff, int64(len(d.inTx)))
		d.outVal = append(d.outVal, tx.OutVals...)
		d.outOff = append(d.outOff, int64(len(d.outVal)))
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
