package core

import (
	"math/bits"

	"optchain/internal/txgraph"
)

// logical is what the index holds of one transaction: nothing once it is
// spent out or past its count, whether its record still stands or its
// segment has compacted it away. off is where the span starts, 0 without
// one.
type logical struct {
	deg, outs int32
	n         uint16
	off       uint32
}

// record returns the record of v, or nil when its bit is clear.
func (t *T2SIndex) record(v txgraph.Node) *t2sNode {
	sg := &t.segs[v>>segBits]
	b, bit := v>>6&(segBlocks-1), uint64(1)<<(v&63)
	if sg.held[b]&bit == 0 {
		return nil
	}
	return &sg.recs[int(sg.prefix[b])+bits.OnesCount64(sg.held[b]&(bit-1))]
}

// node returns the logical record of v.
func (t *T2SIndex) node(v txgraph.Node) logical {
	nd := t.record(v)
	if nd == nil || nd.spent(t.outCount(v, nd.outs)) {
		return logical{}
	}
	l := logical{deg: nd.deg, outs: t.outCount(v, nd.outs), n: nd.n}
	if nd.n != 0 {
		l.off = nd.off
	}
	return l
}

// vec returns the committed p'(v) columns (views into the slab; read-only),
// empty once v is retired.
func (t *T2SIndex) vec(v txgraph.Node) ([]uint16, []uint64) {
	nd := t.node(v)
	if nd.n == 0 {
		return nil, nil
	}
	return t.slot(nd.off, int(nd.n))
}

// vector returns a copy of p'(v), converted to float64; empty once v is
// retired.
func (t *T2SIndex) vector(v txgraph.Node) map[int]float64 {
	shards, vals := t.vec(v)
	out := make(map[int]float64, len(shards))
	for i, s := range shards {
		out[int(s)] = qToFloat(vals[i])
	}
	return out
}

// outDegree returns the current online out-degree of v, 0 once it is
// retired.
func (t *T2SIndex) outDegree(v txgraph.Node) int { return int(t.node(v).deg) }

// spentRecords counts the spent records the segments have not compacted
// away yet.
func (t *T2SIndex) spentRecords() int {
	n := 0
	for i := range t.segs {
		n += int(t.segs[i].spent)
	}
	return n
}
