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
// goes on a free list for its length, and the next vector of that length
// reuses the slot before the arena is extended. The arena therefore grows
// with the live set, not with the stream. A node whose output count is
// unknown (0) is never retired. A reference to a retired node — legal only
// in a stream that spends more outputs than a transaction declared —
// contributes no score mass and is counted (Retired). Liveness is a
// function of the out-degree and output count alone, so a restored index
// (which re-derives it) decides as the uninterrupted one does.
//
// Per transaction the index keeps one 4-byte word. Once v is spent out —
// exactly, 0 < outputs == spenders — its output count is all there is to
// know of it, and the word holds that count behind the spentOut flag. Any
// other transaction (one with an unspent output, one whose count is
// unknown, one spent past its count) has a 12-byte node record in a record
// table, and its word is the record's index. Retiring v frees its record
// onto a LIFO list the next node takes it from, so the table, like the
// arena, grows with the live set and is allocated in chunks. A reference
// past the last output gives v a record again, with no vector, so the
// out-degree and the late references stay exact.
//
// A placed transaction therefore holds 4 bytes here for good (beside the
// assignment's packed decision, half a byte at k = 16), and while it
// is live 12 bytes of record plus 10 bytes per entry of its vector (and 8
// bytes more for good if it declared manyOuts outputs or more). A stream
// that declares no output counts retires nothing, so each of its
// transactions keeps word and record: 16 bytes, 4 more than one record.
// Steady state, Prepare and Commit allocate nothing between chunk
// boundaries.
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
	// node being committed, once, and the count kept from then on: in the
	// node record (t2sNode.outs), or in bigOuts when it does not fit there,
	// and in the word once the node is spent out.
	outCounts func(txgraph.Node) int

	// bigOuts holds, ascending by node, every count of manyOuts or more a
	// node was committed with; a snapshot writes every count and a spent-out
	// node can be named again, so it never shrinks.
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

	// words holds one word per committed transaction: spentOut plus the
	// output count, or the index of the node's record in recs.
	words []uint32
	// recs is the record table, in chunks of recChunk records; records
	// [0, nrecs) have been handed out, and freeRec heads the list of those
	// freed since (noSlot: none), each freed record's off naming the next.
	recs    []*[recChunk]t2sNode
	nrecs   int
	freeRec uint32

	// free[n] is the offset of the most recently retired n-entry slot, or
	// noSlot; a free slot's first value holds the offset of the next one.
	// The lists live inside the arena, so retiring and reusing allocate
	// nothing, and reuse is LIFO: the slot Commit takes is most often the
	// one Prepare just read.
	free []uint32

	retiredTxs, retiredRefs int64

	// spent is how many words hold a spent-out node's count, and wideOuts
	// and wideDegs are the bytes the output counts of all nodes and the
	// out-degrees of the others take as uvarints beyond one a node, so that
	// a snapshot's size is known without a pass over the records: a count
	// is fixed when its node is committed, an out-degree takes a byte more
	// only when it reaches 2^7, 2^14, and so on, and retire and revive move
	// a node's out-degree out of the total and back.
	spent              int
	wideOuts, wideDegs int64

	tally t2sTally
}

// t2sNode is the record of a transaction that is not spent out: where p'(v)
// is, how many distinct spenders v has had, and how many it can have. An
// input costs its word and, unless it is spent out, its record: one load
// each, the record read whole.
type t2sNode struct {
	off  uint32 // slab offset of the first entry of p'(v); on the free list, the next free record
	deg  int32  // |Nout(v)| so far: distinct spenders seen
	n    uint16 // entries of p'(v); 0 once v is retired
	outs uint16 // output count of v: 0 unknown, manyOuts "see bigOuts"
}

// spentOut flags a word that holds the output count of a spent-out node
// rather than the index of its record. Counts are at most math.MaxInt32
// and records fewer than there are nodes, so neither reaches the flag.
const spentOut = 1 << 31

// recChunk is how many records one chunk of the record table holds: 48
// KiB, six pages.
const (
	recBits  = 12
	recChunk = 1 << recBits
)

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
// on decisions). n is a capacity hint for the per-transaction words; the
// record table grows with the live set whatever n is. The assignment holds
// at most placement.MaxShards shards, which is what the index's 2-byte
// shard entries can name.
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
		words:     make([]uint32, 0, n),
		freeRec:   noSlot,
		free:      make([]uint32, asn.K()+1),
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
// every transaction keeps a 12-byte record beside its 4-byte word (see
// T2SIndex). Install it before the first Prepare: nodes committed earlier
// keep the counts they were committed with.
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

// rec returns record w of the record table.
//
//optchain:hotpath one call per input of every stream transaction.
func (t *T2SIndex) rec(w uint32) *t2sNode { return &t.recs[w>>recBits][w&(recChunk-1)] }

// newRecord stores nd in a record, the most recently freed one or else the
// next of the table (a chunk of them allocated when the last is handed
// out), and returns its index.
//
//optchain:hotpath one call per stream transaction; a chunk is allocated once per recChunk records.
func (t *T2SIndex) newRecord(nd t2sNode) uint32 {
	w := t.freeRec
	if w != noSlot {
		t.freeRec = t.rec(w).off
	} else {
		if t.nrecs == len(t.recs)<<recBits {
			t.recs = append(t.recs, new([recChunk]t2sNode))
		}
		w = uint32(t.nrecs)
		t.nrecs++
	}
	*t.rec(w) = nd
	return w
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

// bigOut looks up the output count of v in bigOuts, where its record sent
// the reader.
func (t *T2SIndex) bigOut(v txgraph.Node) int32 {
	i, _ := slices.BinarySearchFunc(t.bigOuts, v, func(b bigOut, v txgraph.Node) int { return cmp.Compare(b.v, v) })
	return t.bigOuts[i].outs
}

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

// retire drops v, whose last output (of outs) has just been spent: the slot
// of its vector heads the free list for its length, its record (index w)
// heads the record free list, and its word becomes the output count.
//
//optchain:hotpath once per transaction whose outputs are all spent.
func (t *T2SIndex) retire(v txgraph.Node, w uint32, outs int32) {
	t.retiredTxs++
	nd := t.rec(w)
	if n := nd.n; n != 0 {
		_, vals := t.slot(nd.off, 1)
		vals[0] = uint64(t.free[n])
		t.free[n] = nd.off
		t.entries -= int(n)
	}
	nd.off, t.freeRec = t.freeRec, w
	t.words[v] = spentOut | uint32(outs)
	t.spent++
	t.wideDegs -= placement.UvarintLen(uint64(outs)) - 1
}

// revive gives the spent-out node v, whose word is word, a record again —
// its output count as out-degree and count, no vector — for a reference
// past its last output, and returns the record's index. A count of
// manyOuts or more is still in bigOuts.
func (t *T2SIndex) revive(v txgraph.Node, word uint32) uint32 {
	count := int32(word &^ spentOut)
	w := t.newRecord(t2sNode{deg: count, outs: uint16(min(count, manyOuts))})
	t.words[v] = w
	t.spent--
	t.wideDegs += placement.UvarintLen(uint64(count)) - 1
	return w
}

// extend makes room for the next node's vector of n entries and returns the
// columns to fill: the most recently retired slot of that length when there
// is one, else the current chunk, or the next one when n entries do not fit
// what is left of it. It adds the node's word and record. Commit adds every
// vector through here; the snapshot restore reproduces the layout this
// gives when no slot is free (restoreState). It fails, changing nothing,
// when the vector would end past the offsets a record can store.
//
//optchain:hotpath one call per stream transaction; a chunk is allocated once per 1<<chunkBits entries.
func (t *T2SIndex) extend(n int) ([]uint16, []uint64, error) {
	if n == 0 {
		t.addNode(t2sNode{})
		return nil, nil, nil
	}
	if off := t.free[n]; off != noSlot {
		shards, vals := t.slot(off, n)
		t.free[n] = uint32(vals[0])
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
		return nil, nil, fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", len(t.words), start+uint64(n), slabLimit)
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

// addNode adds the next node's word and record, the record holding the
// node's output count when there is a source to ask.
//
//optchain:hotpath one call per stream transaction.
func (t *T2SIndex) addNode(nd t2sNode) {
	if t.outCounts != nil {
		v := txgraph.Node(len(t.words))
		nd.outs = t.keepOuts(v, t.outCounts(v))
	}
	t.words = append(t.words, t.newRecord(nd))
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
	if int(u) != len(t.words) {
		panic(fmt.Sprintf("core: out-of-order Prepare(%d), expected %d", u, len(t.words)))
	}

	// Accumulate (1−α) Σ p'(v)/|Nout(v)| into the dense merge buffer,
	// tracking which shards were touched.
	for _, v := range inputs {
		w := t.words[v]
		if w&spentOut != 0 {
			w = t.revive(v, w)
		}
		nd := t.rec(w)
		nd.deg++ // u is now a spender of v
		if nd.deg&(1<<7-1) == 0 {
			t.widenDeg(nd.deg)
		}
		div := nd.deg
		outs := t.outCount(v, nd.outs)
		if outs > 0 {
			if nd.deg > outs {
				t.retiredRefs++ // an earlier spender took the last output
				continue
			}
			div = outs
		}
		if nd.n != 0 {
			shards, vals := t.slot(nd.off, int(nd.n))
			if len(inputs) == 1 {
				t.tally.single(u, shards, vals, int64(div), t.scaleQ)
				if nd.deg == outs {
					t.retire(v, w, outs)
				}
				return
			}
			t.tally.accumulate(shards, vals, int64(div))
		}
		if nd.deg == outs {
			t.retire(v, w, outs)
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

// Bytes reports the heap the index's columns hold, from their capacities:
// 10 bytes per slab entry of every allocated chunk (live vectors, free
// slots and unfilled tails alike), the words, 12 bytes per record of every
// allocated chunk of the record table, the large output counts and the
// free-list heads.
func (t *T2SIndex) Bytes() int64 {
	return int64(len(t.slabS))*10<<t.chunkBits + 4*int64(cap(t.words)) + 12*recChunk*int64(len(t.recs)) +
		8*int64(cap(t.bigOuts)) + 4*int64(cap(t.free))
}
