package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
	return &DecodeStream{br: br, n: int(n64), outCounts: make([]int32, 0, min(n64, 1<<20))}, nil
}

// N returns the transaction count the stream header declares.
func (s *DecodeStream) N() int { return s.n }

// Err returns the decode failure that ended the stream, or nil. Next
// returning false with a nil Err means the declared count was delivered.
func (s *DecodeStream) Err() error { return s.err }

// Next fills tx with the next transaction (its inputs, output count, exact
// per-output values in OutVals with their sum in Value, and a nominal Gap)
// and reports whether one was produced. The slices are owned by the
// caller-provided tx and reused between calls. A transaction AppendTx would
// refuse stops the stream, as does a malformed encoding; see Err.
func (s *DecodeStream) Next(tx *Tx) bool {
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
	tx.Inputs = tx.Inputs[:0]
	for j := uint64(0); j < nIn; j++ {
		txi, err := get()
		if err != nil {
			return fail("tx %d input: %v", i, err)
		}
		oi, err := get()
		if err != nil {
			return fail("tx %d input idx: %v", i, err)
		}
		// Clamped, so that an index past the int and uint32 ranges fails
		// check as out of range instead of wrapping into it.
		tx.Inputs = append(tx.Inputs, Input{Tx: int(min(txi, math.MaxInt32)), Index: uint32(min(oi, math.MaxUint32))})
	}
	nOut, err := get()
	if err != nil {
		return fail("tx %d outputs: %v", i, err)
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
		// A value above MaxInt64 wraps negative here, and check refuses it.
		tx.OutVals = append(tx.OutVals, int64(v))
		tx.Value += int64(v)
	}
	tx.Outputs = int(nOut)
	tx.Gap = 1
	if err := tx.check(i, s.numOutputs); err != nil {
		return fail("%v", err)
	}
	s.outCounts = append(s.outCounts, int32(nOut))
	s.i++
	return true
}

func (s *DecodeStream) numOutputs(i int) int { return int(s.outCounts[i]) }

// Decode reads a dataset written by Encode, refusing what DecodeStream
// refuses.
func Decode(r io.Reader) (*Dataset, error) {
	s, err := NewDecodeStream(r)
	if err != nil {
		return nil, err
	}
	d := New(min(s.n, 1<<20))
	var tx Tx
	for s.Next(&tx) {
		if err := d.AppendTx(&tx); err != nil {
			return nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
