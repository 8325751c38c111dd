package txgraph

import "math/bits"

// Deduper reduces a transaction's input list to its distinct nodes, first
// occurrences in their order: a transaction spending several outputs of one
// parent names it once per output, and the TaN network has one edge for all
// of them. The zero value is ready for use. It keeps a scratch table sized
// by the widest list it has been given, so a caller that places a stream
// holds one and reuses it; it is not safe for concurrent use.
type Deduper struct {
	slots []dedupeSlot // open addressing, a power of two long
	stamp uint32       // a slot belongs to the current list iff it carries this
}

type dedupeSlot struct {
	node  Node
	stamp uint32
}

// scanMax is the longest list deduplicated by scanning what has been kept
// so far. At most 28 comparisons over one cache line beat hashing; a
// 300-input hub costs 45,000 comparisons that way and 300 probes the other.
const scanMax = 8

// Compact removes the repeats from list[from:] in place and returns the
// shortened list; list[:from] is not read.
//
//optchain:hotpath one call per stream transaction; the table grows only with the widest input list seen.
func (d *Deduper) Compact(list []Node, from int) []Node {
	ins := list[from:]
	if len(ins) > scanMax {
		return list[:from+d.compactWide(ins)]
	}
	w := 0
scan:
	for _, v := range ins {
		for _, seen := range ins[:w] {
			if seen == v {
				continue scan
			}
		}
		ins[w] = v
		w++
	}
	return list[:from+w]
}

// compactWide is Compact through the scratch table: linear in the list. A
// slot stamped by an earlier list reads as empty, so nothing is cleared
// between lists until the stamp wraps.
//
//optchain:hotpath one call per wide stream transaction.
func (d *Deduper) compactWide(ins []Node) int {
	if 2*len(ins) > len(d.slots) {
		//optchain:alloc-ok grows to the widest transaction seen, then never again
		d.slots = make([]dedupeSlot, 1<<bits.Len(uint(2*len(ins)-1)))
		d.stamp = 0
	}
	d.stamp++
	if d.stamp == 0 {
		clear(d.slots)
		d.stamp = 1
	}
	mask := uint32(len(d.slots) - 1)
	shift := bits.LeadingZeros32(mask) // the hash keeps its top log2(len(slots)) bits
	w := 0
	for _, v := range ins {
		i := uint32(v) * 0x9E3779B1 >> shift
		for d.slots[i].stamp == d.stamp && d.slots[i].node != v {
			i = (i + 1) & mask
		}
		if d.slots[i].stamp != d.stamp {
			d.slots[i] = dedupeSlot{v, d.stamp}
			ins[w] = v
			w++
		}
	}
	return w
}
