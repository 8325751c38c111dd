package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// sameVectors fails unless both indexes hold the same live vectors, degrees
// and entry counts; how each laid its slab out is free to differ.
func sameVectors(t *testing.T, got, want *T2SIndex) {
	t.Helper()
	if len(got.words) != len(want.words) || got.SlabLen() != want.SlabLen() {
		t.Fatalf("%d nodes / %d entries, want %d / %d", len(got.words), got.SlabLen(), len(want.words), want.SlabLen())
	}
	for v := range want.words {
		gs, gv := got.vec(txgraph.Node(v))
		ws, wv := want.vec(txgraph.Node(v))
		if !slices.Equal(gs, ws) || !slices.Equal(gv, wv) {
			t.Fatalf("node %d: vector %v %v, want %v %v", v, gs, gv, ws, wv)
		}
		if got.outDegree(txgraph.Node(v)) != want.outDegree(txgraph.Node(v)) {
			t.Fatalf("node %d: out-degree %d, want %d", v, got.outDegree(txgraph.Node(v)), want.outDegree(txgraph.Node(v)))
		}
	}
	gt, gr := got.Retired()
	wt, wr := want.Retired()
	if gt != wt || gr != wr {
		t.Fatalf("retired %d txs / %d refs, want %d / %d", gt, gr, wt, wr)
	}
}

// freeSlots counts the slots on the index's free lists.
func freeSlots(idx *T2SIndex) int {
	slots := 0
	for n, off := range idx.free {
		for off != noSlot {
			_, vals := idx.slot(off, n)
			off = uint32(vals[0])
			slots++
		}
	}
	return slots
}

// TestChunkedSlabDenseVectors drives k = 64 with an adversarial stream —
// every transaction spends one parent in each shard, so every p' vector is
// dense — across more than three chunks, next to an index whose single
// chunk is never left, and through a snapshot taken mid-chunk with slots on
// the free lists. Odd transactions declare the 64 outputs the stream
// spends, so each is retired by its last spender and its dense slot is
// reused, in whichever chunk it lies; even ones declare none and are kept.
func TestChunkedSlabDenseVectors(t *testing.T) {
	const k, n, cut = 64, 400, 250
	outs := func(v txgraph.Node) int { return int(v%2) * k }
	build := func(chunkBits uint) (*OptChainPlacer, *T2SIndex) {
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		p.idx.truncQ = 0 // keep every entry: the vectors stay dense
		p.idx.SetOutCounts(outs)
		if chunkBits != 0 {
			p.idx.chunkBits = chunkBits
		}
		return p, p.idx
	}
	inputs := func(u int) []txgraph.Node {
		var ins []txgraph.Node
		for v := max(0, u-k); v < u; v++ {
			ins = append(ins, txgraph.Node(v))
		}
		return ins
	}
	chunked, idx := build(0)
	flat, ref := build(24)
	var blob []byte
	for u := 0; u < n; u++ {
		if u == cut {
			blob = stateOf(t, chunked)
			if freeSlots(idx) == 0 {
				t.Fatal("snapshot point has empty free lists")
			}
		}
		a, b := chunked.Place(txgraph.Node(u), inputs(u)), flat.Place(txgraph.Node(u), inputs(u))
		if a != b {
			t.Fatalf("tx %d: chunked slab chose %d, flat slab %d", u, a, b)
		}
	}
	if idx.chunkBits != minChunkBits || len(idx.slabS) < 4 || len(ref.slabS) != 1 {
		t.Fatalf("chunkBits %d, %d chunks against %d: the stream does not cross three chunk boundaries",
			idx.chunkBits, len(idx.slabS), len(ref.slabS))
	}
	if last, _ := idx.vec(n - 1); len(last) != k {
		t.Fatalf("last vector has %d entries, want a dense %d", len(last), k)
	}
	// Every odd transaction but the last 64 has had its 64 spenders.
	if txs, refs := idx.Retired(); txs != (n-k)/2 || refs != 0 {
		t.Fatalf("retired %d txs with %d late references, want %d and 0", txs, refs, (n-k)/2)
	}
	if held := idx.SlabLen(); held >= idx.Committed()*3/4 {
		t.Fatalf("%d of %d committed entries still held", held, idx.Committed())
	}
	reused := map[uint32]bool{}
	for v := range idx.words {
		if nd := idx.node(txgraph.Node(v)); nd.n != 0 {
			reused[nd.off>>idx.chunkBits] = true
		}
	}
	if len(reused) < 3 {
		t.Fatalf("live vectors lie in %d chunks, want slots in several", len(reused))
	}
	sameVectors(t, idx, ref)

	// The snapshot was taken with the current chunk partly filled and free
	// slots inside it; the restored index is packed and continues exactly as
	// the uninterrupted one did.
	restored, ridx := build(0)
	if err := restored.RestoreState(placement.NewStateReader(blob)); err != nil {
		t.Fatal(err)
	}
	if n := len(ridx.slabS[ridx.cur]); n == 0 || n == 1<<ridx.chunkBits {
		t.Fatalf("snapshot point is not mid-chunk: current chunk holds %d entries", n)
	}
	if slots := freeSlots(ridx); slots != 0 {
		t.Fatalf("restored index has %d free slots, want a packed slab", slots)
	}
	for u := cut; u < n; u++ {
		want := chunked.Assignment().ShardOf(txgraph.Node(u))
		if got := restored.Place(txgraph.Node(u), inputs(u)); got != want {
			t.Fatalf("tx %d after restore: %d, uninterrupted run chose %d", u, got, want)
		}
	}
	sameVectors(t, ridx, idx)
}

// vecOf builds an n-entry vector whose values name the node it belongs to.
func vecOf(node, n int) ([]uint16, []uint64) {
	shards, vals := make([]uint16, n), make([]uint64, n)
	for i := range shards {
		shards[i], vals[i] = uint16(i), uint64(node)<<16|uint64(i)
	}
	return shards, vals
}

// TestChunkBoundaries places vectors by hand so that one exactly fills a
// chunk, the next starts the following chunk at its base, and a later one
// that does not fit skips the unfilled tail of its chunk; then retires some
// and checks which slot each following vector takes.
func TestChunkBoundaries(t *testing.T) {
	const k, size = 64, 1 << minChunkBits
	idx := NewT2SIndex(0.5, 0, placement.NewAssignment(k, 0), 0)
	var lens []int
	add := func(n int) uint32 {
		t.Helper()
		if err := idx.appendVec(vecOf(len(lens), n)); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, n)
		return idx.node(txgraph.Node(len(lens) - 1)).off
	}
	retire := func(v int) uint32 {
		off := idx.node(txgraph.Node(v)).off
		idx.retire(txgraph.Node(v), idx.words[v], 1)
		lens[v] = 0
		return off
	}
	for i := 0; i < 63; i++ {
		add(k) // 4032 entries
	}
	add(63)
	add(1) // exactly fills chunk 0
	if len(idx.slabS) != 1 || len(idx.slabS[0]) != size {
		t.Fatalf("chunk 0 holds %d entries in %d chunks, want exactly %d in 1", len(idx.slabS[0]), len(idx.slabS), size)
	}
	if off := add(k); off != size { // starts chunk 1 at its base, no padding
		t.Fatalf("vector after a full chunk starts at %d, want %d", off, size)
	}
	for i := 0; i < 62; i++ {
		add(k)
	}
	add(58) // chunk 1 now holds size-6 entries
	add(0)  // an empty vector at the boundary owns nothing
	// Ten entries do not fit the six left: the vector skips to chunk 2.
	if off := add(10); off != 2*size {
		t.Fatalf("skipping vector starts at %d, want %d", off, 2*size)
	}
	add(3)

	// Reuse is LIFO per length and by exact length only. Two dense slots in
	// chunk 0 and one in chunk 1 are freed: the next dense vectors take
	// them newest first, across the chunk boundary, while the arena's tail
	// is in chunk 2; a length nobody freed appends there.
	a, b, c := retire(2), retire(70), retire(5)
	tail := add(7)
	if tail != 2*size+13 {
		t.Fatalf("a length with an empty free list went to %d, want the tail %d", tail, 2*size+13)
	}
	for i, want := range []uint32{c, b, a} {
		if off := add(k); off != want {
			t.Fatalf("dense vector %d reused the slot at %d, want %d", i, off, want)
		}
	}
	if off := add(k); off != tail+7 {
		t.Fatalf("dense vector with the list drained went to %d, want the tail %d", off, tail+7)
	}
	// The one-entry slot that ends chunk 0 and an empty vector: retiring
	// the second frees nothing, and a new empty vector takes no slot.
	one := retire(64)
	retire(129)
	add(0)
	if off := add(1); off != one || off != size-1 {
		t.Fatalf("one-entry vector went to %d, want chunk 0's last entry %d", off, size-1)
	}
	if slots := freeSlots(idx); slots != 0 {
		t.Fatalf("%d slots still free", slots)
	}

	total := 0
	for v, n := range lens {
		shards, vals := idx.vec(txgraph.Node(v))
		ws, wv := vecOf(v, n)
		if !slices.Equal(shards, ws) || !slices.Equal(vals, wv) {
			t.Fatalf("node %d (%d entries): got %v %v", v, n, shards, vals)
		}
		total += n
	}
	if idx.SlabLen() != total {
		t.Fatalf("SlabLen %d counts padding or free slots: %d entries are live", idx.SlabLen(), total)
	}
	if want := int64(3*size*10 + 4*cap(idx.words) + 12*recChunk + 4*(k+1)); idx.Bytes() != want {
		t.Fatalf("Bytes %d, want %d", idx.Bytes(), want)
	}
}

// TestOutputCountBeyondTheRecord: a count too large for the node record's
// two bytes is asked of the source at every spend and divides as itself.
func TestOutputCountBeyondTheRecord(t *testing.T) {
	asn := placement.NewAssignment(2, 4)
	idx := NewT2SIndex(0.5, 0, asn, 4)
	idx.SetNormalize(false)
	idx.SetOutCounts(func(v txgraph.Node) int { return 1 << 20 })
	idx.Prepare(0, nil)
	idx.Commit(0, 1)
	asn.Place(0, 1)
	// (1-α)·α/2^20 = 2^-22, less a quantum or two of Q32.32 rounding; the
	// largest count the record itself can hold would give sixteen times that.
	const want = 1.0 / (1 << 22)
	if scores := idx.Prepare(1, []txgraph.Node{0}); scores[1] > want || scores[1] < 0.99*want || scores[0] != 0 {
		t.Fatalf("scores %v, want %g for shard 1", scores, want)
	}
	idx.Commit(1, 1)
	if txs, _ := idx.Retired(); txs != 0 || len(idx.vector(0)) != 1 {
		t.Fatalf("%d retired after 1 of 2^20 outputs was spent", txs)
	}
}

// TestRetireThenReuseInOnePlacement: the parent a transaction spends to
// exhaustion is retired by Prepare, and the Commit of that same transaction
// stores the child's vector in the slot the parent just left.
func TestRetireThenReuseInOnePlacement(t *testing.T) {
	const k = 4
	asn := placement.NewAssignment(k, 8)
	idx := NewT2SIndex(0.5, 0, asn, 8)
	idx.SetOutCounts(func(v txgraph.Node) int { return []int{1, 2, 0, 1, 1}[v] })
	place := func(u txgraph.Node, s int, inputs ...txgraph.Node) {
		idx.Prepare(u, inputs)
		idx.Commit(u, s)
		asn.Place(u, s)
	}
	place(0, 1)
	place(1, 1)
	parent := idx.node(0).off
	place(2, 1, 0) // spends 0's only output and has 0's vector length
	if len(idx.vector(0)) != 0 || idx.node(2).off != parent {
		t.Fatalf("child at %d, want the retired parent's slot %d (parent now %v)", idx.node(2).off, parent, idx.vector(0))
	}
	if len(idx.slabS[0]) != 2 || idx.SlabLen() != 2 || idx.Committed() != 3 {
		t.Fatalf("arena holds %d entries, %d live, %d ever: want 2, 2, 3", len(idx.slabS[0]), idx.SlabLen(), idx.Committed())
	}
	// 1 has two outputs: its first spender leaves it live, the second
	// retires it, and a third is a counted reference that moves nothing.
	place(3, 2, 1)
	if len(idx.vector(1)) == 0 {
		t.Fatal("transaction 1 retired with an output unspent")
	}
	place(4, 2, 1, 2)
	if txs, refs := idx.Retired(); txs != 2 || refs != 0 || len(idx.vector(1)) != 0 {
		t.Fatalf("retired %d txs, %d late refs, vector %v: want 2, 0, empty", txs, refs, idx.vector(1))
	}
	scores := idx.Prepare(5, []txgraph.Node{1})
	for s, v := range scores {
		if v != 0 {
			t.Fatalf("a retired parent gave shard %d score %g", s, v)
		}
	}
	if txs, refs := idx.Retired(); txs != 2 || refs != 1 || idx.outDegree(1) != 3 {
		t.Fatalf("retired %d txs, %d late refs, out-degree %d: want 2, 1, 3", txs, refs, idx.outDegree(1))
	}
	// 2 declared no output count: it is never retired, however often spent.
	if idx.outDegree(2) != 1 || len(idx.vector(2)) == 0 {
		t.Fatalf("transaction 2: out-degree %d, vector %v", idx.outDegree(2), idx.vector(2))
	}
}

// TestEmptyIndexState: an index that has placed nothing snapshots to empty
// columns (the two count columns with a zero byte length besides their zero
// count) and restores to an index that places from the start.
func TestEmptyIndexState(t *testing.T) {
	p := NewOptChain(OptChainConfig{K: 4})
	blob := stateOf(t, p)
	if !bytes.Equal(blob, make([]byte, 8)) {
		t.Fatalf("empty state is % x, want 8 zero bytes", blob)
	}
	fresh := NewOptChain(OptChainConfig{K: 4})
	if err := fresh.RestoreState(placement.NewStateReader(blob)); err != nil {
		t.Fatal(err)
	}
	if len(fresh.idx.words) != 0 || fresh.Scores().SlabLen() != 0 {
		t.Fatalf("restored %d nodes, %d entries from an empty state", len(fresh.idx.words), fresh.idx.SlabLen())
	}
	if s := fresh.Place(0, nil); s < 0 || s >= 4 {
		t.Fatalf("first placement after an empty restore chose shard %d", s)
	}
}

// TestSlabOffsetLimit lowers the bound on slab offsets to where a short
// stream reaches it: the commit that would pass it panics with an error,
// which the Engine reports as that transaction's failure, and no offset
// ever wraps; a restore that would pass it fails the same way.
func TestSlabOffsetLimit(t *testing.T) {
	defer func(old uint64) { slabLimit = old }(slabLimit)
	const k = 4
	p := NewT2SPlacer(k, 0, DefaultAlpha, 0.1)
	for u := 0; u < 10; u++ {
		p.Place(txgraph.Node(u), nil)
	}
	blob := stateOf(t, p)
	slabLimit = 10
	func() {
		defer func() {
			err, _ := recover().(error)
			if err == nil || !strings.Contains(err.Error(), "slab is full") {
				t.Fatalf("commit past the limit: recovered %v", err)
			}
		}()
		p.Place(10, nil)
	}()
	if len(p.idx.words) != 10 || p.idx.SlabLen() != 10 || len(p.idx.slabS[0]) != 10 {
		t.Fatalf("failed commit changed the index: %d nodes, %d entries, %d in the chunk", len(p.idx.words), p.idx.SlabLen(), len(p.idx.slabS[0]))
	}

	slabLimit = 9
	err := NewT2SPlacer(k, 0, DefaultAlpha, 0.1).RestoreState(placement.NewStateReader(blob))
	if err == nil || !strings.Contains(err.Error(), "slab is full") {
		t.Fatalf("restore past the limit: %v", err)
	}
}

// TestShardCountLimit: the largest shard id the 2-byte column can name
// survives a commit and a snapshot, one chunk holds the widest vector, and
// an index cannot be built over more shards than that.
func TestShardCountLimit(t *testing.T) {
	const k = placement.MaxShards
	p := NewT2SPlacer(k, 0, DefaultAlpha, 0.1)
	if 1<<p.idx.chunkBits < k {
		t.Fatalf("chunks of %d entries cannot hold a vector over %d shards", 1<<p.idx.chunkBits, k)
	}
	for u, s := range []int{k - 1, 0, k - 2} {
		p.idx.Prepare(txgraph.Node(u), nil)
		p.idx.Commit(txgraph.Node(u), s)
		p.idx.asn.Place(txgraph.Node(u), s)
	}
	// A vector wider than the blocks the snapshot gathers through.
	if err := p.idx.appendVec(vecOf(3, 3000)); err != nil {
		t.Fatal(err)
	}
	p.idx.asn.Place(3, 7)
	fresh := NewT2SPlacer(k, 0, DefaultAlpha, 0.1)
	if err := fresh.RestoreState(placement.NewStateReader(stateOf(t, p))); err != nil {
		t.Fatal(err)
	}
	sameVectors(t, fresh.idx, p.idx)
	if shards, _ := fresh.idx.vec(0); len(shards) != 1 || shards[0] != k-1 || fresh.Assignment().ShardOf(0) != k-1 {
		t.Fatalf("shard %d came back as %v / %d", k-1, shards, fresh.Assignment().ShardOf(0))
	}
	mustPanic(t, func() { NewT2SIndex(0.5, 0, placement.NewAssignment(k+1, 0), 0) })
}
