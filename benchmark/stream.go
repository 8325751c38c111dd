package main

import (
	"fmt"
	"strconv"

	"optchain"
	"optchain/internal/workload"
)

// stream is a materialised workload in pointer-free flat arrays, so the
// harness adds nothing for the collector to trace while the program under
// test is measured: the inputs of transaction i are
// inputs[offs[i]:offs[i+1]] (parent stream positions as generated — a
// parent spent twice appears twice, the Engine deduplicates) and it creates
// outs[i] outputs.
type stream struct {
	inputs []int
	offs   []int32
	outs   []int32
}

func (s *stream) len() int { return len(s.outs) }

func (s *stream) in(i int) []int { return s.inputs[s.offs[i]:s.offs[i+1]] }

// materialize drains n transactions of spec. Feedback-aware sources
// (adversarial) are never observed here, so the stream is a function of the
// seed alone and not of the decisions of the program under test. A non-nil
// lap is marked every segTxs transactions and once more at the end.
func materialize(spec string, n int, seed int64, lap *laps) (*stream, error) {
	src, err := workload.New(spec, workload.Params{N: n, Seed: seed, Shards: shards})
	if err != nil {
		return nil, err
	}
	defer workload.Close(src)
	s := &stream{
		inputs: make([]int, 0, 3*n),
		offs:   make([]int32, 1, n+1),
		outs:   make([]int32, 0, n),
	}
	var tx workload.Tx
	for s.len() < n && src.Next(&tx) {
		for _, in := range tx.Inputs {
			s.inputs = append(s.inputs, in.Tx)
		}
		s.offs = append(s.offs, int32(len(s.inputs)))
		s.outs = append(s.outs, int32(tx.Outputs))
		if lap != nil && s.len()%segTxs == 0 {
			lap.mark()
		}
	}
	if lap != nil {
		lap.mark()
	}
	if f, ok := src.(workload.Failer); ok && f.Err() != nil {
		return nil, fmt.Errorf("workload %s: %w", spec, f.Err())
	}
	if s.len() != n {
		return nil, fmt.Errorf("workload %s: produced %d of %d transactions", spec, s.len(), n)
	}
	return s, nil
}

// view points the reused chunk at transactions [lo, hi) without copying.
func (s *stream) view(chunk []optchain.StreamTx, lo, hi int) []optchain.StreamTx {
	chunk = chunk[:hi-lo]
	for i := range chunk {
		chunk[i] = optchain.StreamTx{Inputs: s.in(lo + i), Outputs: int(s.outs[lo+i])}
	}
	return chunk
}

// nodes returns the deduplicated inputs of every transaction in the same
// flat layout, as int32 graph nodes: what the Engine hands a placer, and so
// what the core layers are replayed with.
func (s *stream) nodes() (nodes []int32, offs []int32) {
	nodes = make([]int32, 0, len(s.inputs))
	offs = make([]int32, 1, len(s.offs))
	for i := 0; i < s.len(); i++ {
		start := len(nodes)
	next:
		for _, in := range s.in(i) {
			for _, seen := range nodes[start:] {
				if seen == int32(in) {
					continue next
				}
			}
			nodes = append(nodes, int32(in))
		}
		offs = append(offs, int32(len(nodes)))
	}
	return nodes, offs
}

// shape is the form of a gateway request line.
type shape int

const (
	// positional lines name their inputs by absolute stream position and
	// carry no id.
	positional shape = iota
	// named lines carry an id and name their inputs as parents by id.
	named
)

// appendLine encodes transaction i of s as one JSON request line of the
// given shape. Ids are prefix + stream position.
func appendLine(dst []byte, sh shape, prefix string, s *stream, i int) []byte {
	dst = append(dst, '{')
	ins := s.in(i)
	if sh == named {
		dst = append(dst, `"id":"`...)
		dst = append(dst, prefix...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, `",`...)
		if len(ins) > 0 {
			dst = append(dst, `"parents":[`...)
			for j, in := range ins {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, '"')
				dst = append(dst, prefix...)
				dst = strconv.AppendInt(dst, int64(in), 10)
				dst = append(dst, '"')
			}
			dst = append(dst, `],`...)
		}
	} else if len(ins) > 0 {
		dst = append(dst, `"inputs":[`...)
		for j, in := range ins {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(in), 10)
		}
		dst = append(dst, `],`...)
	}
	dst = append(dst, `"outputs":`...)
	dst = strconv.AppendInt(dst, int64(s.outs[i]), 10)
	return append(dst, "}\n"...)
}

// bodies holds pre-encoded request bodies back to back: body i is
// buf[offs[i]:offs[i+1]], and together they carry lines request lines.
type bodies struct {
	buf   []byte
	offs  []int
	lines int
}

func (b *bodies) count() int        { return len(b.offs) - 1 }
func (b *bodies) body(i int) []byte { return b.buf[b.offs[i]:b.offs[i+1]] }

// encodeBodies encodes the first lines transactions of s, perBody lines to
// a body.
func encodeBodies(s *stream, sh shape, prefix string, lines, perBody int) *bodies {
	b := &bodies{
		buf:   make([]byte, 0, 64*lines),
		offs:  make([]int, 1, lines/perBody+2),
		lines: lines,
	}
	for i := 0; i < lines; i++ {
		b.buf = appendLine(b.buf, sh, prefix, s, i)
		if (i+1)%perBody == 0 || i+1 == lines {
			b.offs = append(b.offs, len(b.buf))
		}
	}
	return b
}
