package core

import (
	"slices"
	"strings"
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// sameVectors fails unless both indexes hold the same vectors, degrees and
// entry count; how each laid its slab out is free to differ.
func sameVectors(t *testing.T, got, want *T2SIndex) {
	t.Helper()
	if len(got.outDeg) != len(want.outDeg) || got.SlabLen() != want.SlabLen() {
		t.Fatalf("%d nodes / %d entries, want %d / %d", len(got.outDeg), got.SlabLen(), len(want.outDeg), want.SlabLen())
	}
	for v := range want.outDeg {
		gs, gv := got.vec(txgraph.Node(v))
		ws, wv := want.vec(txgraph.Node(v))
		if !slices.Equal(gs, ws) || !slices.Equal(gv, wv) {
			t.Fatalf("node %d: vector %v %v, want %v %v", v, gs, gv, ws, wv)
		}
		if got.OutDegree(txgraph.Node(v)) != want.OutDegree(txgraph.Node(v)) {
			t.Fatalf("node %d: out-degree %d, want %d", v, got.OutDegree(txgraph.Node(v)), want.OutDegree(txgraph.Node(v)))
		}
	}
}

// TestChunkedSlabDenseVectors drives k = 64 with an adversarial stream —
// every transaction spends one parent in each shard, so every p' vector is
// dense — across more than three chunks, next to an index whose single
// chunk is never left, and through a snapshot taken mid-chunk.
func TestChunkedSlabDenseVectors(t *testing.T) {
	const k, n, cut = 64, 400, 250
	build := func(chunkBits uint) (*T2SPlacer, *T2SIndex) {
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		p.idx.truncQ = 0 // keep every entry: the vectors stay dense
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
	sameVectors(t, idx, ref)

	// The snapshot was taken with the current chunk partly filled; the
	// restored index continues exactly as the uninterrupted one did.
	restored, ridx := build(0)
	if err := restored.RestoreState(placement.NewStateReader(blob)); err != nil {
		t.Fatal(err)
	}
	if n := len(ridx.slabS[ridx.cur]); n == 0 || n == 1<<ridx.chunkBits {
		t.Fatalf("snapshot point is not mid-chunk: current chunk holds %d entries", n)
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
// that does not fit skips the unfilled tail of its chunk.
func TestChunkBoundaries(t *testing.T) {
	const k, size = 64, 1 << minChunkBits
	idx := NewT2SIndex(0.5, 0, placement.NewAssignment(k, 0), 0)
	var lens []int
	add := func(n int) {
		t.Helper()
		if err := idx.appendVec(vecOf(len(lens), n)); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, n)
	}
	for i := 0; i < 63; i++ {
		add(k) // 4032 entries
	}
	add(63)
	add(1) // exactly fills chunk 0
	if len(idx.slabS) != 1 || len(idx.slabS[0]) != size {
		t.Fatalf("chunk 0 holds %d entries in %d chunks, want exactly %d in 1", len(idx.slabS[0]), len(idx.slabS), size)
	}
	add(k) // starts chunk 1 at its base, no padding
	if got := idx.ends[len(lens)]; got != size+k {
		t.Fatalf("vector after a full chunk ends at %d, want %d", got, size+k)
	}
	for i := 0; i < 62; i++ {
		add(k)
	}
	add(58) // chunk 1 now holds size-6 entries
	add(0)  // an empty vector at the boundary owns nothing
	add(10) // does not fit the 6 left: skips to chunk 2
	if got := idx.ends[len(lens)]; got != 2*size+10 {
		t.Fatalf("skipping vector ends at %d, want %d", got, 2*size+10)
	}
	add(3)

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
		t.Fatalf("SlabLen %d counts padding: %d entries were added", idx.SlabLen(), total)
	}
	if want := int64(3*size*10 + 4*cap(idx.ends) + 4*cap(idx.outDeg)); idx.Bytes() != want {
		t.Fatalf("Bytes %d, want %d", idx.Bytes(), want)
	}
}

// TestEmptyIndexState: an index that has placed nothing snapshots to four
// empty columns and restores to an index that places from the start.
func TestEmptyIndexState(t *testing.T) {
	p := NewOptChain(OptChainConfig{K: 4})
	blob := stateOf(t, p)
	if len(blob) != 5 {
		t.Fatalf("empty state is %d bytes, want 5 zero counts", len(blob))
	}
	fresh := NewOptChain(OptChainConfig{K: 4})
	if err := fresh.RestoreState(placement.NewStateReader(blob)); err != nil {
		t.Fatal(err)
	}
	if len(fresh.idx.outDeg) != 0 || fresh.Scores().SlabLen() != 0 {
		t.Fatalf("restored %d nodes, %d entries from an empty state", len(fresh.idx.outDeg), fresh.idx.SlabLen())
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
	if len(p.idx.outDeg) != 10 || p.idx.SlabLen() != 10 || p.idx.ends[10] != 10 {
		t.Fatalf("failed commit changed the index: %d nodes, %d entries, end %d", len(p.idx.outDeg), p.idx.SlabLen(), p.idx.ends[10])
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
