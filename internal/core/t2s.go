// Package core implements the paper's primary contribution (§IV): the
// Transaction-to-Shard (T2S) score — an incrementally maintained,
// PageRank-style fitness between each arriving transaction and every shard —
// the Latency-to-Shard (L2S) confirmation-latency estimate, and the
// OptChain placement rule (Alg. 1) that maximizes the Temporal Fitness
// p(u)[j] − w·E(j).
package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// t2sTally is the dense-accumulation scratch state behind Prepare: the merge
// buffer collecting Σ p'(v)/|Nout(v)|, the set of shards it touched, the
// pending sparse vector held between Prepare and Commit, and the dense float
// score output. It holds no per-transaction state, so the merge can be
// tested on its own.
type t2sTally struct {
	merge   []uint64 // dense Q32.32 accumulation buffer, all zero between merges
	touched []uint64 // bit s of word s/64: shard s took mass in the current merge

	// pending holds p'(u) between Prepare and Commit, SoA, sorted by shard.
	pendS       []uint16
	pendV       []uint64
	pendingNode txgraph.Node
	hasPending  bool

	scores []float64 // reusable dense output buffer
}

func (t *t2sTally) init(k int) {
	t.merge = make([]uint64, k)
	t.touched = make([]uint64, (k+63)/64)
	t.scores = make([]float64, k)
}

// accumulate merges one input vector scaled by 1/div into the dense buffer.
// The divide happens once per input (as a reciprocal), not once per entry;
// the inner loop is a widening multiply plus a saturating add.
//
//optchain:hotpath the T2S score maintenance inner loop (§IV-B).
func (t *t2sTally) accumulate(shards []uint16, vals []uint64, div int64) {
	if div <= 1 {
		// Divisor 1 is common (first spender, single-output parents) and the
		// reciprocal would round every value down a quantum; add directly.
		for i, s := range shards {
			t.touched[s>>6] |= 1 << (s & 63)
			t.merge[s] = qSatAdd(t.merge[s], vals[i])
		}
		return
	}
	r := qRecip(uint64(div))
	for i, s := range shards {
		t.touched[s>>6] |= 1 << (s & 63)
		t.merge[s] = qSatAdd(t.merge[s], qDivRecip(vals[i], r))
	}
}

// single is accumulate and finish for a transaction with one input: the
// parent's vector is sorted and has no shard twice, so nothing is merged
// and it is scaled straight into the pending columns, entry for entry what
// the dense buffer would have produced.
//
//optchain:hotpath one call per single-input stream transaction, about half of them.
func (t *t2sTally) single(u txgraph.Node, shards []uint16, vals []uint64, div int64, scaleQ uint64) {
	t.pendS = t.pendS[:0]
	t.pendV = t.pendV[:0]
	if div <= 1 {
		for i, s := range shards {
			if v := qMul(vals[i], scaleQ); v > 0 {
				t.pendS = append(t.pendS, s)
				t.pendV = append(t.pendV, v)
			}
		}
	} else {
		r := qRecip(uint64(div))
		for i, s := range shards {
			if v := qMul(qDivRecip(vals[i], r), scaleQ); v > 0 {
				t.pendS = append(t.pendS, s)
				t.pendV = append(t.pendV, v)
			}
		}
	}
	t.pendingNode = u
	t.hasPending = true
}

// finish scales the merged mass by (1−α) and freezes it as the pending
// sparse vector for u, dropping entries quantized to zero. Walking the
// touched words bit by bit visits the shards in ascending order, so the
// vector comes out sorted with nothing to sort, and the walk hands the merge
// buffer back zeroed.
//
//optchain:hotpath one call per stream transaction with two or more inputs.
func (t *t2sTally) finish(u txgraph.Node, scaleQ uint64) {
	t.pendS = t.pendS[:0]
	t.pendV = t.pendV[:0]
	for w, word := range t.touched {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			if v := qMul(t.merge[s], scaleQ); v > 0 {
				t.pendS = append(t.pendS, uint16(s))
				t.pendV = append(t.pendV, v)
			}
			t.merge[s] = 0
		}
		t.touched[w] = 0
	}
	t.pendingNode = u
	t.hasPending = true
}

// dense expands the pending vector into the float score buffer:
// p(u)[i] = p'(u)[i]/|Si| when normalizing (0 for empty shards — no
// transaction there to be related to), raw p'(u)[i] otherwise.
//
//optchain:hotpath one call per stream transaction.
func (t *t2sTally) dense(counts []int64, normalize bool) []float64 {
	for i := range t.scores {
		t.scores[i] = 0
	}
	for i, s := range t.pendS {
		if !normalize {
			t.scores[s] = qToFloat(t.pendV[i])
			continue
		}
		if c := counts[s]; c > 0 {
			t.scores[s] = qToFloat(t.pendV[i]) / float64(c)
		}
	}
	return t.scores
}

// seal turns the pending p'(u) into the vector Commit stores: it splices
// the α restart mass for the chosen shard into the sorted pending columns,
// applies relative truncation, and returns the result, which lives in the
// pending buffers until the next Prepare.
//
//optchain:hotpath one call per stream transaction; the pending buffers reach k+1 entries once.
func (t *t2sTally) seal(shard uint16, alphaQ, truncQ uint64) ([]uint16, []uint64) {
	i := 0
	for i < len(t.pendS) && t.pendS[i] < shard {
		i++
	}
	if i < len(t.pendS) && t.pendS[i] == shard {
		t.pendV[i] = qSatAdd(t.pendV[i], alphaQ)
	} else {
		t.pendS = append(t.pendS, 0)
		t.pendV = append(t.pendV, 0)
		copy(t.pendS[i+1:], t.pendS[i:])
		copy(t.pendV[i+1:], t.pendV[i:])
		t.pendS[i], t.pendV[i] = shard, alphaQ
	}
	if truncQ > 0 {
		var max uint64
		for _, v := range t.pendV {
			if v > max {
				max = v
			}
		}
		threshold := qMul(max, truncQ)
		w := 0
		for i, v := range t.pendV {
			if v >= threshold {
				t.pendS[w] = t.pendS[i]
				t.pendV[w] = v
				w++
			}
		}
		t.pendS = t.pendS[:w]
		t.pendV = t.pendV[:w]
	}
	t.hasPending = false
	return t.pendS, t.pendV
}

// T2SIndex maintains the incremental T2S state of §IV-B: for every placed
// transaction v, the un-normalized vector p'(v); for every transaction, the
// current out-degree |Nout(v)| (distinct spenders seen so far — the online
// estimate of the final TaN out-degree).
//
// Per paper, for a new transaction u:
//
//	p'(u) = (1−α) Σ_{v∈Nin(u)} p'(v)/|Nout(v)|
//	p(u)[i] = p'(u)[i]/|Si|
//
// and after placing u into shard s, p'(u)[s] += α. The computation is
// O(|Nin(u)|·k) worst case and O(k) on the scale-free TaN network.
//
// Storage: vectors are immutable once committed, so they all live in one
// slab arena, struct-of-arrays — a 2-byte shard column and a Q32.32 value
// column — so the merge inner loop streams two dense homogeneous arrays
// instead of interleaved pairs, and score mass is fixed point (see fixed.go)
// so accumulation is exact and the per-entry divide is a reciprocal
// multiply. The arena is held in fixed-size chunks; a vector never straddles
// a chunk (one that does not fit the current chunk starts the next), and
// each node record says where its vector starts and how long it is. Growing
// the arena is allocating one more chunk: nothing is copied and there is no
// doubling slack.
//
// Retirement: in the UTXO model a transaction whose outputs are all spent
// can never be named again, so its vector is dead weight. When the
// spenders of v reach its known output count, Prepare retires v: the slot
// goes on a free list for its length, and the next vector reuses the
// shortest free slot that holds it before the arena is extended, what it
// leaves of a longer one going on the list for that length. The arena
// therefore grows with the live set, not with the stream. A node whose
// output count is unknown (0) is never retired. A reference to a retired node — legal only
// in a stream that spends more outputs than a transaction declared —
// contributes no score mass and is counted (Retired). Liveness is a
// function of the out-degree and output count alone, so a restored index
// (which re-derives it) decides as the uninterrupted one does.
//
// Records: every run of segSize consecutive nodes has a segment, which
// holds a held bitmap (a bit a node: it has a 12-byte record), a 16-bit
// rank prefix per 64 nodes, and the records packed in node order, so node
// v's record is recs[prefix[b] + popcount(held[b] & below(v))]. Retiring
// v leaves its record in place, spent (its out-degree equal to its count),
// and a later reference takes the out-degree past the count and is counted
// as late. A segment drops its spent records, clears their bits and
// rebuilds its prefix when they pass a fixed share of its live ones
// (compact), one segment at a time; from then on a reference to such a
// node finds its bit clear and is counted as late alone. The open
// segment, the last, has its records allocated whole, and is compacted
// once, when the next one opens.
//
// A placed transaction therefore holds the segment's 672 bytes over 4096
// nodes, about 0.16 bytes, here for good (beside the assignment's packed
// decision, half a byte at k = 16), and while it is live 12 bytes of
// record plus 10 bytes per entry of its vector (and 8 bytes more while its
// record stands, if it declared manyOuts outputs or more). A stream that
// declares no output counts retires nothing, so each of its transactions
// keeps its record: about 12.16 bytes. Steady state, Prepare and Commit
// allocate nothing between chunk and segment boundaries.
type T2SIndex struct {
	alpha    float64
	alphaQ   uint64  // α restart mass in Q32.32
	scaleQ   uint64  // 1−α in Q32.32 (exact complement of alphaQ)
	truncate float64 // relative threshold; entries below truncate·max are dropped (0 = exact)
	truncQ   uint64  // truncate in Q32.32
	asn      *placement.Assignment

	// normalize selects whether Prepare divides p'(u)[i] by |Si| (the
	// paper's formula). Exposed for the normalization ablation.
	normalize bool

	// outCounts, when non-nil, supplies |Nout(v)| as the number of outputs
	// transaction v created — the UTXO-model reading of "output
	// transactions of v": each output is spent exactly once, so the
	// eventual TaN out-degree of v equals its output count (less the
	// never-spent tail). This is known the moment v arrives, and it
	// immediately discounts wide fan-out transactions (batch payouts)
	// whose thousands of recipients should not all follow the payer's
	// shard. When nil, the divisor is the number of distinct spenders seen
	// so far (including the one being scored). It is asked only about the
	// node being committed, once, and the count kept from then on in the
	// node record (t2sNode.outs), or in bigOuts when it does not fit there.
	outCounts func(txgraph.Node) int

	// bigOuts holds, ascending by node, the count of every record that
	// says manyOuts; compact drops the entry with the record.
	bigOuts []bigOut

	// The arena: chunk c backs slab offsets [c<<chunkBits, (c+1)<<chunkBits)
	// and its length is the prefix handed out so far (live vectors and free
	// slots). Every chunk holds 1<<chunkBits entries, at least k, so any
	// vector fits one.
	chunkBits uint
	slabS     [][]uint16 // shard column of every committed p'(v)
	slabV     [][]uint64 // Q32.32 value column, same indexing
	cur       int        // chunk a vector with no free slot to reuse is tried in first
	entries   int        // entries of live vectors (free slots and chunk-end padding excluded)
	committed int        // entries of every vector ever added, retired ones included

	// segs holds the records, segment s those of nodes [s<<segBits,
	// (s+1)<<segBits); nodes is how many have been committed and live how
	// many of them are neither spent out nor spent past their count.
	segs  []segment
	nodes int
	live  int

	// free[n] is the offset of the most recently freed n-entry slot, or
	// noSlot; a free slot's first value holds the offset of the next one.
	// The lists live inside the arena, so retiring and reusing allocate
	// nothing, and reuse is LIFO: the slot Commit takes is most often the
	// one Prepare just read. Bit n of freeLens is set while free[n] holds
	// a slot; it has a word more than k needs, so that fitFree reads two.
	free     []uint32
	freeLens []uint64

	retiredTxs, retiredRefs int64

	// wideOuts and wideDegs are the bytes the output counts and out-degrees
	// of the live nodes take as uvarints beyond one a node, so that a
	// snapshot's size is known without a pass over the records: a count is
	// fixed when its node is committed, an out-degree takes a byte more
	// only when it reaches 2^7, 2^14, and so on, and retire takes both out.
	wideOuts, wideDegs int64

	tally t2sTally
}

// t2sNode is the record of a transaction: where p'(v) is, how many
// distinct spenders v has had, and how many it can have. An input costs
// its segment's bitmap word and prefix, and its record, read whole.
type t2sNode struct {
	off  uint32 // slab offset of the first entry of p'(v)
	deg  int32  // |Nout(v)| so far: distinct spenders seen
	n    uint16 // entries of p'(v); 0 once v is retired
	outs uint16 // output count of v: 0 unknown, manyOuts "see bigOuts"
}

// spent reports whether a record with output count outs is spent out or
// past its count.
func (nd *t2sNode) spent(outs int32) bool { return outs > 0 && nd.deg >= outs }

// A segment covers segSize consecutive nodes, segBlocks blocks of 64.
// 4096 nodes' records are 48 KiB, six pages: the open segment's
// allocation.
const (
	segBits   = 12
	segSize   = 1 << segBits
	segBlocks = segSize / 64
)

// segment holds the records of segSize consecutive nodes.
type segment struct {
	held   [segBlocks]uint64 // bit v%64 of word v/64 (within the segment): v has a record
	prefix [segBlocks]uint16 // records of the segment's nodes before block b
	spent  int32             // records of spent-out nodes, not yet compacted away
	recs   []t2sNode         // the records, in node order
}

// segBytes is what a segment takes beside its records.
const segBytes = int64(unsafe.Sizeof(segment{}))

// compactShift sets the share of a closed segment's live records its
// spent ones may reach before it is compacted: 1/2^compactShift. On the
// benchmark's three streams (1M transactions, k = 16) the index keeps
// 0.12-0.16 B/tx of spent records at 1/8, 0.24-0.32 at 1/4 and 0.46-0.61
// at 1/2, and its compactions pass over 3.6-4.9, 2.4-3.1 and 1.8-2.2
// records per transaction. Placed in lockstep with the index before
// segments, 1/8 took 2-5% longer than 1/4, and 1/2 was no faster than
// 1/4: a quarter buys the smallest state that costs no time.
const compactShift = 2

// manyOuts marks an output count too large for the node record.
const manyOuts = 1<<16 - 1

// bigOut is the output count of a node whose record says manyOuts.
type bigOut struct {
	v    txgraph.Node
	outs int32
}

// noSlot ends a free list. No vector starts there: slabLimit keeps every
// offset below it.
const noSlot = ^uint32(0)

// minChunkBits sizes the arena's chunks for every shard count up to 4096:
// 4096 entries are 8 KiB of shard ids and 32 KiB of values, both exact
// allocator size classes, so an index of a few thousand transactions costs
// tens of kilobytes and the unfilled tail of the last chunk never more.
const minChunkBits = 12

// slabLimit bounds slab offsets, which are stored as uint32 (a variable
// only so that a test can reach the bound with a small stream).
var slabLimit uint64 = 1<<32 - 1

// NewT2SIndex creates an index over the given assignment with damping
// factor alpha (paper: 0.5) and relative truncation threshold truncate
// (0 keeps vectors exact; ~1e-4 keeps them small with no measurable effect
// on decisions). n is a capacity hint for the segment directory; the
// records grow with the live set whatever n is. The assignment holds at
// most placement.MaxShards shards, which is what the index's 2-byte shard
// entries can name.
func NewT2SIndex(alpha, truncate float64, asn *placement.Assignment, n int) *T2SIndex {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if truncate < 0 {
		truncate = 0
	}
	if n < 0 {
		n = 0
	}
	alphaQ := qFromFloat(alpha)
	t := &T2SIndex{
		alpha:     alpha,
		alphaQ:    alphaQ,
		scaleQ:    qOne - alphaQ,
		truncate:  truncate,
		truncQ:    qFromFloat(truncate),
		asn:       asn,
		normalize: true,
		chunkBits: max(minChunkBits, uint(bits.Len(uint(asn.K()-1)))),
		segs:      make([]segment, 0, (n+segSize-1)/segSize),
		free:      make([]uint32, asn.K()+1),
		freeLens:  make([]uint64, asn.K()/64+2),
	}
	for i := range t.free {
		t.free[i] = noSlot
	}
	t.tally.init(asn.K())
	return t
}

// SetNormalize toggles the 1/|Si| score normalization (default on).
func (t *T2SIndex) SetNormalize(on bool) { t.normalize = on }

// SetOutCounts installs an output-count source used as the |Nout(v)|
// divisor and as the point at which v is retired (see the outCounts field).
// The index asks it only about the transaction being committed, so a source
// that knows only the current transaction's count is enough. Passing nil
// restores the spenders-so-far divisor, under which nothing is retired and
// every transaction keeps its 12-byte record for good (see T2SIndex).
// Install it before the first Prepare: nodes committed earlier keep the
// counts they were committed with.
func (t *T2SIndex) SetOutCounts(fn func(txgraph.Node) int) { t.outCounts = fn }

// Alpha returns the damping factor.
func (t *T2SIndex) Alpha() float64 { return t.alpha }

func (t *T2SIndex) addChunk() {
	t.slabS = append(t.slabS, make([]uint16, 0, 1<<t.chunkBits))
	t.slabV = append(t.slabV, make([]uint64, 0, 1<<t.chunkBits))
}

// slot returns the columns of the n-entry slot at slab offset off.
//
//optchain:hotpath one call per input of every stream transaction.
func (t *T2SIndex) slot(off uint32, n int) ([]uint16, []uint64) {
	c, o := off>>t.chunkBits, int(off&(1<<t.chunkBits-1))
	return t.slabS[c][o : o+n], t.slabV[c][o : o+n]
}

// outCount returns the output count the node record of v stands for: 0
// when unknown.
//
//optchain:hotpath one call per input of every stream transaction.
func (t *T2SIndex) outCount(v txgraph.Node, outs uint16) int32 {
	if outs == manyOuts {
		return t.bigOut(v)
	}
	return int32(outs)
}

// bigOutAt returns where v's entry is, or would be, in bigOuts.
func (t *T2SIndex) bigOutAt(v txgraph.Node) int {
	i, _ := slices.BinarySearchFunc(t.bigOuts, v, func(b bigOut, v txgraph.Node) int { return cmp.Compare(b.v, v) })
	return i
}

// bigOut looks up the output count of v in bigOuts, where its record sent
// the reader.
func (t *T2SIndex) bigOut(v txgraph.Node) int32 { return t.bigOuts[t.bigOutAt(v)].outs }

// keepOuts returns the node record's form of the output count of v, keeps a
// count too large for it in bigOuts, and adds the bytes the count takes as
// a uvarint past one to wideOuts. A negative count is unknown, and one past
// what an int32 holds is clamped to it.
//
//optchain:hotpath one call per stream transaction.
func (t *T2SIndex) keepOuts(v txgraph.Node, outs int) uint16 {
	if outs < 1<<7 {
		return uint16(max(outs, 0))
	}
	outs = min(outs, math.MaxInt32)
	t.wideOuts += placement.UvarintLen(uint64(outs)) - 1
	if outs < manyOuts {
		return uint16(outs)
	}
	t.bigOuts = append(t.bigOuts, bigOut{v: v, outs: int32(outs)})
	return manyOuts
}

// widenDeg counts the byte more that an out-degree of deg, a multiple of
// 2^7, may take as a uvarint than deg-1 did.
func (t *T2SIndex) widenDeg(deg int32) {
	t.wideDegs += placement.UvarintLen(uint64(deg)) - placement.UvarintLen(uint64(deg-1))
}

// pushFree puts the n-entry slot at off at the head of its free list.
//
//optchain:hotpath once per retired vector, and per slot a vector takes the front of.
func (t *T2SIndex) pushFree(n int, off uint32) {
	_, vals := t.slot(off, 1)
	vals[0] = uint64(t.free[n])
	t.free[n] = off
	t.freeLens[n>>6] |= 1 << (n & 63)
}

// popFree takes the slot at the head of the free list for n entries.
//
//optchain:hotpath once per vector stored in a free slot.
func (t *T2SIndex) popFree(n int) uint32 {
	off := t.free[n]
	_, vals := t.slot(off, 1)
	if t.free[n] = uint32(vals[0]); t.free[n] == noSlot {
		t.freeLens[n>>6] &^= 1 << (n & 63)
	}
	return off
}

// fitFree returns the length of the shortest free slot that holds n > 0
// entries and is at most 63 longer, or 0 when there is none.
//
//optchain:hotpath one call per stream transaction.
func (t *T2SIndex) fitFree(n int) int {
	w, b := n>>6, uint(n&63)
	if m := t.freeLens[w]>>b | t.freeLens[w+1]<<(64-b); m != 0 {
		return n + bits.TrailingZeros64(m)
	}
	return 0
}

// retire drops the vector of v, whose record nd in segment s has just had
// the last of its outs outputs spent: the slot heads the free list for its
// length, the record stays, spent, and the segment is compacted once its
// spent records pass its share of live ones, unless it is the open one.
//
//optchain:hotpath once per transaction whose outputs are all spent.
func (t *T2SIndex) retire(s int, nd *t2sNode, outs int32) {
	t.retiredTxs++
	if n := nd.n; n != 0 {
		t.pushFree(int(n), nd.off)
		t.entries -= int(n)
		nd.n = 0
	}
	t.live--
	wide := placement.UvarintLen(uint64(outs)) - 1
	t.wideOuts -= wide
	t.wideDegs -= wide
	sg := &t.segs[s]
	sg.spent++
	if s < len(t.segs)-1 && int(sg.spent)<<compactShift > len(sg.recs)-int(sg.spent) {
		t.compact(s)
	}
}

// compact drops the spent records of segment s, with their bigOuts
// entries, clears their bits and rebuilds the prefix, the live records
// moved into an allocation their size (and one more, rounded to the
// allocator's size class). A segment whose records fill their allocation
// and are all live is left as it is.
func (t *T2SIndex) compact(s int) {
	sg := &t.segs[s]
	if sg.spent == 0 && len(sg.recs) == cap(sg.recs) {
		return
	}
	// One pass with no branch on whether a record is spent, which is close
	// to a coin toss: every record is written at the next free place and
	// only a kept one moves that place on, so the allocation has room for
	// one more than the kept records.
	n := len(sg.recs) - int(sg.spent)
	//optchain:alloc-ok once per segment as it closes, then once its spent records pass 1/2^compactShift of its live ones
	recs := slices.Grow([]t2sNode(nil), n+1)[:n+1]
	r, w := 0, 0
	for b, word := range sg.held {
		sg.prefix[b] = uint16(w)
		var drop uint64
		for m := word; m != 0; m &= m - 1 {
			nd := &sg.recs[r]
			r++
			outs := int32(nd.outs)
			if outs == manyOuts {
				i := t.bigOutAt(txgraph.Node(s<<segBits | b<<6 | bits.TrailingZeros64(m)))
				if outs = t.bigOuts[i].outs; nd.deg >= outs {
					t.bigOuts = slices.Delete(t.bigOuts, i, i+1)
				}
			}
			// Spent when 0 < outs <= deg: outs-deg-1 and -outs are then
			// both negative.
			spent := uint64((outs-nd.deg-1)&-outs) >> 31 & 1
			recs[w] = *nd
			w += int(1 - spent)
			drop |= spent << bits.TrailingZeros64(m)
		}
		sg.held[b] = word &^ drop
	}
	sg.recs, sg.spent = recs[:w], 0
}

// extend makes room for the next node's vector of n entries and returns the
// columns to fill: the front of the most recently freed slot of the
// shortest length that holds it when there is one (fitFree; the rest of
// the slot goes on the free list for its length), else the current chunk,
// or the next one when n entries do not fit what is left of it. It adds the node's record. Commit adds every vector
// through here; the snapshot restore reproduces the layout this gives when
// no slot is free (restoreState). It fails, changing nothing, when the
// vector would end past the offsets a record can store.
//
//optchain:hotpath one call per stream transaction; a chunk is allocated once per 1<<chunkBits entries.
func (t *T2SIndex) extend(n int) ([]uint16, []uint64, error) {
	if n == 0 {
		t.addNode(t2sNode{})
		return nil, nil, nil
	}
	if m := t.fitFree(n); m != 0 {
		off := t.popFree(m)
		if m > n {
			t.pushFree(m-n, off+uint32(n))
		}
		shards, vals := t.slot(off, n)
		t.addNode(t2sNode{off: off, n: uint16(n)})
		t.entries += n
		t.committed += n
		return shards, vals, nil
	}
	if len(t.slabS) == 0 {
		t.addChunk()
	}
	c, filled := t.cur, len(t.slabS[t.cur])
	if filled+n > 1<<t.chunkBits {
		c, filled = c+1, 0
	}
	start := uint64(c)<<t.chunkBits + uint64(filled)
	if start+uint64(n) > slabLimit {
		//optchain:alloc-ok cold path: the error ends the stream
		return nil, nil, fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", t.nodes, start+uint64(n), slabLimit)
	}
	if c == len(t.slabS) {
		t.addChunk()
	}
	t.cur = c
	t.slabS[c] = t.slabS[c][:filled+n]
	t.slabV[c] = t.slabV[c][:filled+n]
	t.addNode(t2sNode{off: uint32(start), n: uint16(n)})
	t.entries += n
	t.committed += n
	return t.slabS[c][filled:], t.slabV[c][filled:], nil
}

// addNode adds the next node's record to the open segment, the record
// holding the node's output count when there is a source to ask. The
// first node of a segment opens it, and closes the one before (compact).
//
//optchain:hotpath one call per stream transaction; a segment is opened once per segSize nodes.
func (t *T2SIndex) addNode(nd t2sNode) {
	v := t.nodes
	if v&(segSize-1) == 0 {
		//optchain:alloc-ok once per segSize nodes
		t.segs = append(t.segs, segment{recs: make([]t2sNode, 0, segSize)})
		if len(t.segs) > 1 {
			t.compact(len(t.segs) - 2)
		}
	}
	sg := &t.segs[len(t.segs)-1]
	b := v >> 6 & (segBlocks - 1)
	if v&63 == 0 {
		sg.prefix[b] = uint16(len(sg.recs))
	}
	sg.held[b] |= 1 << (v & 63)
	if t.outCounts != nil {
		nd.outs = t.keepOuts(txgraph.Node(v), t.outCounts(txgraph.Node(v)))
	}
	sg.recs = append(sg.recs, nd)
	t.nodes++
	t.live++
}

// appendVec adds one finished vector as the next node's.
//
//optchain:hotpath one call per stream transaction.
func (t *T2SIndex) appendVec(shards []uint16, vals []uint64) error {
	dstS, dstV, err := t.extend(len(shards))
	if err != nil {
		return err
	}
	copy(dstS, shards)
	copy(dstV, vals)
	return nil
}

// Prepare computes p'(u) for the next transaction u and returns the dense
// normalized score vector p(u) (valid until the next Prepare call). It also
// advances the out-degree of each input to include u, matching the online
// random-walk interpretation, and retires an input whose outputs are now
// all spent. Prepare must be followed by exactly one Commit for the same
// node.
//
//optchain:hotpath the T2S score maintenance loop (§IV-B).
func (t *T2SIndex) Prepare(u txgraph.Node, inputs []txgraph.Node) []float64 {
	t.prepareVector(u, inputs)
	return t.tally.dense(t.asn.CountsView(), t.normalize)
}

// prepareVector is Prepare without the dense expansion: p'(u) is left
// pending as the sparse vector (tally.pendS/pendV, ascending by shard, every
// value positive), which is all that a caller deciding over the support of
// p'(u) reads and all that Commit stores.
//
//optchain:hotpath the T2S score maintenance loop (§IV-B).
func (t *T2SIndex) prepareVector(u txgraph.Node, inputs []txgraph.Node) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: Prepare(%d) before Commit(%d)", u, t.tally.pendingNode))
	}
	if int(u) != t.nodes {
		panic(fmt.Sprintf("core: out-of-order Prepare(%d), expected %d", u, t.nodes))
	}

	// Accumulate (1−α) Σ p'(v)/|Nout(v)| into the dense merge buffer,
	// tracking which shards were touched.
	for _, v := range inputs {
		if int(v) >= t.nodes {
			panic(fmt.Sprintf("core: Prepare(%d) names transaction %d, not yet committed", u, v))
		}
		s := int(v >> segBits)
		sg := &t.segs[s]
		b, bit := v>>6&(segBlocks-1), uint64(1)<<(v&63)
		held := sg.held[b]
		if held&bit == 0 {
			t.retiredRefs++ // spent out, its record compacted away
			continue
		}
		nd := &sg.recs[int(sg.prefix[b])+bits.OnesCount64(held&(bit-1))]
		nd.deg++ // u is now a spender of v
		div := nd.deg
		outs := t.outCount(v, nd.outs)
		if outs > 0 {
			if nd.deg > outs {
				t.retiredRefs++ // an earlier spender took the last output
				continue
			}
			div = outs
		}
		if nd.deg&(1<<7-1) == 0 {
			t.widenDeg(nd.deg)
		}
		if nd.n != 0 {
			shards, vals := t.slot(nd.off, int(nd.n))
			if len(inputs) == 1 {
				t.tally.single(u, shards, vals, int64(div), t.scaleQ)
				if nd.deg == outs {
					t.retire(s, nd, outs)
				}
				return
			}
			t.tally.accumulate(shards, vals, int64(div))
		}
		if nd.deg == outs {
			t.retire(s, nd, outs)
		}
	}
	t.tally.finish(u, t.scaleQ)
}

// Commit finalizes the placement of the prepared node into shard s: it adds
// the α restart mass at s, truncates, and stores p'(u) in the slab arena.
// The caller is responsible for also recording the decision in the
// Assignment (the placers in this package do both).
//
//optchain:hotpath one call per stream transaction.
func (t *T2SIndex) Commit(u txgraph.Node, shard int) {
	if !t.tally.hasPending || t.tally.pendingNode != u {
		panic(fmt.Sprintf("core: Commit(%d) without matching Prepare", u))
	}
	if err := t.appendVec(t.tally.seal(uint16(shard), t.alphaQ, t.truncQ)); err != nil {
		panic(err) // the Engine reports it as this transaction's failure
	}
}

// SlabLen reports how many sparse entries the live vectors hold now
// (diagnostics, memory accounting, the snapshot's slab columns); retired
// vectors, free slots and chunk-end padding are not counted.
func (t *T2SIndex) SlabLen() int { return t.entries }

// Committed reports how many entries all vectors added so far held,
// retired ones included: what SlabLen would be if nothing were retired.
// A restored index counts from what it loaded.
func (t *T2SIndex) Committed() int { return t.committed }

// Retired reports how many transactions have had every declared output
// spent and their vectors dropped, and how many input references named
// such a transaction afterwards (a stream spending more outputs than were
// declared); those references contributed no score mass.
func (t *T2SIndex) Retired() (txs, refs int64) { return t.retiredTxs, t.retiredRefs }

// Bytes reports the heap the index's columns hold, from their capacities
// (the sum of Columns).
func (t *T2SIndex) Bytes() int64 {
	c := t.Columns()
	return c.Bitmaps + c.Prefixes + c.Records + c.Spent + c.RecordSlack + c.Slab + c.Other
}

// ColumnBytes is the heap the index's columns hold, column by column.
type ColumnBytes struct {
	Bitmaps, Prefixes int64 // the segments' held bitmaps and rank prefixes, over the directory's capacity
	Records           int64 // the records of live nodes, 12 bytes each
	Spent             int64 // the spent records no compaction has dropped yet
	RecordSlack       int64 // room for records the segments hold unused: the open one's tail, size-class rounding
	Slab              int64 // 10 bytes per entry of every allocated chunk: live vectors, free slots and unfilled tails
	Other             int64 // the segments' headers, the large output counts, the free-list heads and their bitmap
}

// Columns reports what Bytes is made of.
func (t *T2SIndex) Columns() ColumnBytes {
	segs, recs, spent := int64(cap(t.segs)), 0, 0
	for i := range t.segs {
		recs += cap(t.segs[i].recs)
		spent += int(t.segs[i].spent)
	}
	return ColumnBytes{
		Bitmaps:     8 * segBlocks * segs,
		Prefixes:    2 * segBlocks * segs,
		Records:     12 * int64(t.live),
		Spent:       12 * int64(spent),
		RecordSlack: 12 * int64(recs-t.live-spent),
		Slab:        int64(len(t.slabS)) * 10 << t.chunkBits,
		Other:       (segBytes-10*segBlocks)*segs + 8*int64(cap(t.bigOuts)) + 4*int64(cap(t.free)) + 8*int64(cap(t.freeLens)),
	}
}
