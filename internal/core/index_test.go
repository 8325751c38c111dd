package core

import "optchain/internal/txgraph"

// logical is what the index holds of one transaction, whichever way it
// holds it: a spent-out node's word stands for as many spenders as outputs
// and no span. off is where the span starts, 0 without one.
type logical struct {
	deg, outs int32
	n         uint16
	off       uint32
}

// node returns the logical record of v.
func (t *T2SIndex) node(v txgraph.Node) logical {
	w := t.words[v]
	if w&spentOut != 0 {
		count := int32(w &^ spentOut)
		return logical{deg: count, outs: count}
	}
	nd := t.rec(w)
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

// outDegree returns the current online out-degree of v.
func (t *T2SIndex) outDegree(v txgraph.Node) int { return int(t.node(v).deg) }
