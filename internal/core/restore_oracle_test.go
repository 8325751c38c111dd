package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// restoreStateOracle is the plain format-6 reader: one pass over the
// nodes, each restored on its own. A node whose bit is clear is added
// through extend with a count of 1 and given its one spender, which
// retires it; a held node's vector is re-added through extend, the routine
// Commit lays vectors out with, its count read from the section's
// output-count column as extend reads a source, and its out-degree is then
// folded in by addSpenders. Every segment is compacted at the end, and the
// late references are the section's. It slices the columns off with the
// section reader but decodes their elements itself, a node at a time, the
// bitmap a byte at a time and the counts through oracleCount. It is the
// reference restoreState is held to.
func (t *T2SIndex) restoreStateOracle(r *placement.StateReader) error {
	if t.nodes != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", t.nodes)
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	k := t.asn.K()
	width := 1
	if k > 255 {
		width = 2
	}
	elem := func(col []byte, i int) int {
		if width == 1 {
			return int(col[i])
		}
		return int(binary.LittleEndian.Uint16(col[2*i:]))
	}
	bitmap := r.Column(8)
	refs := r.Uvarint()
	outs := r.Counts()
	degs := r.Counts()
	lens := r.Column(width)
	slabShards := r.Column(width)
	slabVals := r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	// Bit v of a bitmap of little-endian words is bit v%8 of byte v/8.
	isHeld := func(v int) bool { return bitmap[v/8]>>(v%8)&1 != 0 }
	nodes, entries := t.asn.Len(), len(slabShards)/width
	if len(bitmap)/8 != (nodes+63)/64 {
		return fmt.Errorf("core: held bitmap of %d words for %d transactions", len(bitmap)/8, nodes)
	}
	heldTxs := 0
	for v := range 8 * len(bitmap) {
		if isHeld(v) {
			heldTxs++
		}
	}
	for v := nodes; v < 8*len(bitmap); v++ {
		if isHeld(v) {
			return fmt.Errorf("core: held bitmap marks node %d, past the %d transactions", v, nodes)
		}
	}
	if refs > math.MaxInt64 {
		return fmt.Errorf("core: %d late references", refs)
	}
	if outs.N != heldTxs {
		return fmt.Errorf("core: %d output counts for %d held transactions", outs.N, heldTxs)
	}
	if degs.N != heldTxs {
		return fmt.Errorf("core: %d out-degrees for %d held transactions", degs.N, heldTxs)
	}
	if len(lens)/width != heldTxs {
		return fmt.Errorf("core: %d span lengths for %d held transactions", len(lens)/width, heldTxs)
	}
	if len(slabVals)/8 != entries {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	src := t.outCounts
	defer func() { t.outCounts = src }()
	var count uint64
	t.outCounts = func(txgraph.Node) int { return int(count) }
	off, h, dp, op := 0, 0, 0, 0
	for v := 0; v < nodes; v++ {
		if !isHeld(v) {
			count = 1
			if _, _, err := t.extend(0); err != nil {
				return err
			}
			t.addSpenders(txgraph.Node(v), 1)
			continue
		}
		c, next, why := oracleCount(outs.Data, op)
		if why != "" {
			return fmt.Errorf("core: output count of node %d: %s", v, why)
		}
		count, op = c, next
		d, next, why := oracleCount(degs.Data, dp)
		if why != "" {
			return fmt.Errorf("core: out-degree of node %d: %s", v, why)
		}
		dp = next
		n := elem(lens, h)
		h++
		if n > k {
			return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
		}
		if off+n > entries {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
		}
		if count > 0 && d >= count {
			return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but is held", v, d, count)
		}
		shards, vals, err := t.extend(n)
		if err != nil {
			return err
		}
		for i := range shards {
			s := elem(slabShards, off+i)
			if s >= k {
				return fmt.Errorf("core: slab entry %d names shard %d of %d", off+i, s, k)
			}
			if i > 0 && s <= int(shards[i-1]) {
				return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", off+i, s, shards[i-1])
			}
			shards[i] = uint16(s)
			vals[i] = binary.LittleEndian.Uint64(slabVals[8*(off+i):])
		}
		off += n
		t.addSpenders(txgraph.Node(v), int32(d))
	}
	if dp != len(degs.Data) {
		return fmt.Errorf("core: out-degree column holds %d bytes past its %d values", len(degs.Data)-dp, heldTxs)
	}
	if op != len(outs.Data) {
		return fmt.Errorf("core: output-count column holds %d bytes past its %d values", len(outs.Data)-op, heldTxs)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	for s := range t.segs {
		t.compact(s)
	}
	t.retiredRefs += int64(refs)
	return nil
}

// oracleCount decodes the count at b[at] in one plain pass: a uvarint, then
// the rules a count column's values keep, in order. It returns the value,
// the offset past it and, for a defect, why.
func oracleCount(b []byte, at int) (uint64, int, string) {
	v, n := binary.Uvarint(b[min(at, len(b)):])
	switch {
	case n == 0:
		return 0, at, "truncated uvarint"
	case n < 0:
		return 0, at, "uvarint overflows 64 bits"
	case n > 1 && b[at+n-1] == 0:
		return 0, at, "non-minimal uvarint"
	case v > math.MaxInt32:
		return 0, at, fmt.Sprintf("%d exceeds %d", v, math.MaxInt32)
	}
	return v, at + n, ""
}

// addSpenders folds d more spenders of v, which has a record, into its
// degree in one step, no more than its count: v is retired if that spends
// its last output.
func (t *T2SIndex) addSpenders(v txgraph.Node, d int32) {
	nd := t.record(v)
	deg := nd.deg + d
	t.wideDegs += placement.UvarintLen(uint64(deg)) - placement.UvarintLen(uint64(nd.deg))
	nd.deg = deg
	if outs := t.outCount(v, nd.outs); outs > 0 && deg == outs {
		t.retire(int(v>>segBits), nd, outs)
	}
}

// holds reports whether v is held: it has a record, and is neither spent
// out nor past its count.
func (t *T2SIndex) holds(v txgraph.Node) bool {
	nd := t.record(v)
	return nd != nil && !nd.spent(t.outCount(v, nd.outs))
}

// sameLogical fails unless both indexes hold the same node count, held
// nodes, live vectors, out-degrees and output counts (the large ones
// included), held entries, retired counters, uvarint byte totals and
// assignment; where each laid its slab out is free to differ, and so are
// the spent records a segment has not compacted away yet and the entries
// committed before a restore.
func sameLogical(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	if got.nodes != want.nodes || got.entries != want.entries {
		t.Fatalf("%d nodes, %d entries held; want %d, %d", got.nodes, got.entries, want.nodes, want.entries)
	}
	if got.live != want.live || got.wideOuts != want.wideOuts || got.wideDegs != want.wideDegs {
		t.Fatalf("%d held; their output counts and out-degrees take %d and %d bytes past one a node; want %d, %d and %d",
			got.live, got.wideOuts, got.wideDegs, want.live, want.wideOuts, want.wideDegs)
	}
	if got.retiredTxs != want.retiredTxs || got.retiredRefs != want.retiredRefs {
		t.Fatalf("retired %d txs / %d refs, want %d / %d", got.retiredTxs, got.retiredRefs, want.retiredTxs, want.retiredRefs)
	}
	for v := range want.nodes {
		g, w := got.node(txgraph.Node(v)), want.node(txgraph.Node(v))
		gs, gv := got.vec(txgraph.Node(v))
		ws, wv := want.vec(txgraph.Node(v))
		if got.holds(txgraph.Node(v)) != want.holds(txgraph.Node(v)) || g.deg != w.deg || g.outs != w.outs || !slices.Equal(gs, ws) || !slices.Equal(gv, wv) {
			t.Fatalf("node %d: held %v, %+v %v %v; want held %v, %+v %v %v", v, got.holds(txgraph.Node(v)), g, gs, gv, want.holds(txgraph.Node(v)), w, ws, wv)
		}
	}
	if got.asn.Len() != want.asn.Len() || !slices.Equal(got.asn.CountsView(), want.asn.CountsView()) {
		t.Fatalf("assignment: %d placed %v, want %d %v", got.asn.Len(), got.asn.CountsView(), want.asn.Len(), want.asn.CountsView())
	}
	for v := 0; v < want.asn.Len(); v++ {
		if g, w := got.asn.ShardOf(txgraph.Node(v)), want.asn.ShardOf(txgraph.Node(v)); g != w {
			t.Fatalf("transaction %d restored in shard %d, want %d", v, g, w)
		}
	}
}

// sameState is sameLogical plus the entries committed and the layout:
// every span at the same offset,
// the same chunk count, chunk lengths and contents, current chunk and
// free-list heads, and every segment's bitmap, prefix and records, with
// the large output counts beside them.
func sameState(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	sameLogical(t, got, want)
	if got.committed != want.committed {
		t.Fatalf("%d entries committed, want %d", got.committed, want.committed)
	}
	for v := range want.nodes {
		if g, w := got.node(txgraph.Node(v)), want.node(txgraph.Node(v)); g != w {
			t.Fatalf("node %d: %+v, want %+v", v, g, w)
		}
	}
	if len(got.slabS) != len(want.slabS) || got.cur != want.cur || !slices.Equal(got.free, want.free) {
		t.Fatalf("%d chunks, current %d, free heads %v; want %d, %d, %v",
			len(got.slabS), got.cur, got.free, len(want.slabS), want.cur, want.free)
	}
	for c := range want.slabS {
		if !slices.Equal(got.slabS[c], want.slabS[c]) || !slices.Equal(got.slabV[c], want.slabV[c]) {
			t.Fatalf("chunk %d: %d entries, want %d, or their contents differ", c, len(got.slabS[c]), len(want.slabS[c]))
		}
	}
	if len(got.segs) != len(want.segs) || !slices.Equal(got.bigOuts, want.bigOuts) {
		t.Fatalf("%d segments, large output counts %v; want %d, %v", len(got.segs), got.bigOuts, len(want.segs), want.bigOuts)
	}
	for s := range want.segs {
		g, w := &got.segs[s], &want.segs[s]
		if g.held != w.held || g.spent != w.spent || !slices.Equal(g.recs, w.recs) {
			t.Fatalf("segment %d: %d records, %d spent; want %d, %d, or their bitmaps or records differ", s, len(g.recs), g.spent, len(w.recs), w.spent)
		}
		for b, word := range w.held {
			if word != 0 && g.prefix[b] != w.prefix[b] {
				t.Fatalf("segment %d, block %d: prefix %d, want %d", s, b, g.prefix[b], w.prefix[b])
			}
		}
	}
}

// restoreBoth restores one section through restoreState and through the
// oracle into two fresh indexes built by mk, and fails unless both accept
// or refuse it with the same error and consume the same bytes.
func restoreBoth(t testing.TB, mk func() *T2SIndex, section []byte) (got, want *T2SIndex, err error) {
	t.Helper()
	got, want = mk(), mk()
	rg, rw := placement.NewStateReader(section), placement.NewStateReader(section)
	err = got.restoreState(rg)
	errW := want.restoreStateOracle(rw)
	if fmt.Sprint(err) != fmt.Sprint(errW) {
		t.Fatalf("restore: %v; the oracle: %v", err, errW)
	}
	if err == nil && rg.Len() != rw.Len() {
		t.Fatalf("restore left %d bytes, the oracle %d", rg.Len(), rw.Len())
	}
	return got, want, err
}

// streamOf materializes txs transactions of a workload spec as deduplicated
// input lists and declared output counts.
func streamOf(t testing.TB, spec string, txs, k int) (inputs func(u int) []txgraph.Node, outs []int) {
	t.Helper()
	src, err := workload.New(spec, workload.Params{N: txs, Seed: 5, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	defer workload.Close(src)
	var (
		dedupe txgraph.Deduper
		nodes  []txgraph.Node
		offs   = []int{0}
		tx     workload.Tx
	)
	for len(outs) < txs && src.Next(&tx) {
		from := len(nodes)
		for _, in := range tx.Inputs {
			nodes = append(nodes, txgraph.Node(in.Tx))
		}
		nodes = dedupe.Compact(nodes, from)
		offs = append(offs, len(nodes))
		outs = append(outs, tx.Outputs)
	}
	if len(outs) != txs {
		t.Fatalf("%s: stream ended after %d transactions", spec, len(outs))
	}
	return func(u int) []txgraph.Node { return nodes[offs[u]:offs[u+1]] }, outs
}

// countColumn is the values of a count column holding outs.
func countColumn(outs []int) []byte {
	var b []byte
	for _, o := range outs {
		b = binary.AppendUvarint(b, uint64(o))
	}
	return b
}

// outsOf writes an index's section, checks that stateSize predicted its
// length, and returns the values of its output-count column.
func outsOf(t testing.TB, idx *T2SIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := placement.NewStateWriter(&buf)
	idx.writeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != idx.stateSize() {
		t.Fatalf("stateSize %d, writeState wrote %d", idx.stateSize(), buf.Len())
	}
	r := placement.NewStateReader(buf.Bytes())
	if err := placement.NewAssignment(idx.asn.K(), 0).RestoreState(r); err != nil {
		t.Fatal(err)
	}
	r.Column(8) // the held bitmap
	r.Uvarint() // the late references
	col := r.Counts()
	if r.Err() != nil || col.N != idx.live {
		t.Fatalf("an output-count column of %d values for %d held nodes (%v)", col.N, idx.live, r.Err())
	}
	return col.Data
}

// heldOuts is the declared counts of the nodes idx holds.
func heldOuts(idx *T2SIndex, outs []int) []int {
	var held []int
	for v := range idx.nodes {
		if idx.holds(txgraph.Node(v)) {
			held = append(held, outs[v])
		}
	}
	return held
}

const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// TestRestoreMatchesOracle: on snapshots of the benchmark's three streams,
// at k = 16 and 64, cut before the first transaction, after it, with the
// current chunk part filled, and at 200k, the segment-at-a-time restore
// builds exactly the index the node-by-node one builds: segments, node
// records, chunks, current chunk, free lists, counters and assignment.
// The output counts come from the section's own count column, which holds
// the stream's counts of the held nodes. A writer that retires leaves no
// span on a spent-out node, so the layouts agree to the slot. Sections
// only a corrupt file holds are below.
func TestRestoreMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("6 placement passes of 200k transactions")
	}
	const txs = 200_000
	for _, w := range []struct{ name, spec string }{
		{"bitcoin", "bitcoin"}, {"hotspot", "hotspot"}, {"mix-ids", mixIDsSpec},
	} {
		for _, k := range []int{16, 64} {
			inputs, outs := streamOf(t, w.spec, txs, k)
			outCounts := func(v txgraph.Node) int { return outs[v] }
			mk := func() *T2SIndex { return NewOptChain(OptChainConfig{K: k, N: txs}).Scores() }
			p := NewOptChain(OptChainConfig{K: k, N: txs})
			p.Scores().SetOutCounts(outCounts)
			midChunk, u := false, 0
			for _, cut := range []int{0, 1, 20_000, txs} {
				for ; u < cut; u++ {
					p.Place(txgraph.Node(u), inputs(u))
				}
				id := fmt.Sprintf("%s k=%d cut=%d", w.name, k, cut)
				if !bytes.Equal(outsOf(t, p.idx), countColumn(heldOuts(p.idx, outs))) {
					t.Fatalf("%s: the placer's output-count column is not the stream's counts of its held nodes", id)
				}
				got, want, err := restoreBoth(t, mk, stateOf(t, p))
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				sameState(t, got, want)
				sameLogical(t, got, p.idx)
				if got.spentRecords() != 0 {
					t.Fatalf("%s: the restored index keeps %d spent records", id, got.spentRecords())
				}
				if got.cur > 0 && len(got.slabS[got.cur]) < 1<<got.chunkBits {
					midChunk = true
				}
			}
			if !midChunk {
				t.Fatalf("%s k=%d: no cut left the current chunk part filled past chunk 0", w.name, k)
			}
		}
	}
}

// TestRestoreOracleSections holds the two restores together on sections no
// stream here produces: output counts and out-degrees of several uvarint
// bytes, counts past what the node record holds (kept beside it, and never
// confused with their low 16 bits), retired nodes and late references, and
// a node held though spent out exactly or past its count, which both
// refuse.
func TestRestoreOracleSections(t *testing.T) {
	const k = 4
	mk := func() *T2SIndex { return NewT2SPlacer(k, 16, DefaultAlpha, 0.1).idx }
	asn := []uint16{0, 1, 2, 3, 0, 1, 2, 3}
	// 0, 1, 3 and 5 are held: 0 has had 4464 = 70000 mod 2^16 spenders of
	// its 70000 outputs, 3 as many as a record can count of its 2^20, and
	// 5 has no count. 2, 4, 6 and 7 are retired, and two references named
	// them past their counts.
	outs := []int{70_000, 300, 1 << 20, 0}
	got, want, err := restoreBoth(t, mk, corruptSectionRefs(2, k, asn, []uint64{0b0010_1011}, counts(70_000, 300, 1<<20, 0),
		counts(4464, 9, manyOuts, 5), []uint16{1, 2, 1, 1}, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if txs, refs := got.Retired(); txs != 4 || refs != 2 || got.live != 4 || got.entries != 5 || got.node(0).n != 1 || got.node(3).n != 1 {
		t.Fatalf("%d retired, %d late references, %d held, %d entries held, spans %+v and %+v", txs, refs, got.live, got.entries, got.node(0), got.node(3))
	}
	if back := outsOf(t, got); !bytes.Equal(back, countColumn(outs)) {
		t.Fatalf("output counts written back as % x, want % x", back, countColumn(outs))
	}
	if len(got.bigOuts) != 2 || got.node(0).outs != 70_000 || got.node(3).outs != 1<<20 || got.record(2) != nil {
		t.Fatalf("large output counts %v", got.bigOuts)
	}
	// 70000 and 2^20 take 3 bytes, 300 two; of the out-degrees 4464 takes
	// two and 65535 three.
	if got.wideOuts != 2+1+2 || got.wideDegs != 1+2 {
		t.Fatalf("output counts take %d bytes past one a node, out-degrees %d: want 5 and 3", got.wideOuts, got.wideDegs)
	}

	// 2 marked held, its 65535 outputs all spent: named, though its span
	// is sound.
	section := corruptSection(k, asn, []uint64{0b0010_1111}, counts(70_000, 300, manyOuts, 1<<20, 0),
		counts(4464, 9, manyOuts, manyOuts, 5), []uint16{1, 2, 1, 1, 1}, []uint16{0, 0, 1, 2, 3, 0}, []uint64{1, 2, 3, 4, 5, 6})
	if _, _, err = restoreBoth(t, mk, section); err == nil || !strings.Contains(err.Error(), "node 2 has had 65535 spenders of its 65535 outputs but is held") {
		t.Fatalf("a spent-out node held: %v", err)
	}
	// And 6 marked held with no span, spent past its count.
	section = corruptSection(k, asn, []uint64{0b0110_1011}, counts(70_000, 300, 1<<20, 0, 2),
		counts(4464, 9, manyOuts, 5, 4), []uint16{1, 2, 1, 1, 0}, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5})
	if _, _, err = restoreBoth(t, mk, section); err == nil || !strings.Contains(err.Error(), "node 6 has had 4 spenders of its 2 outputs but is held") {
		t.Fatalf("an overspent node held: %v", err)
	}
}

// wideStream is n transactions whose first declares 70,000 outputs and is
// spent by every later one, each of which declares two and spends its
// predecessor: an output count and an out-degree of several uvarint bytes.
func wideStream(n int) (inputs func(u int) []txgraph.Node, outs []int) {
	outs = make([]int, n)
	outs[0] = 70_000
	for u := 1; u < n; u++ {
		outs[u] = 2
	}
	return func(u int) []txgraph.Node {
		switch u {
		case 0:
			return nil
		case 1:
			return []txgraph.Node{0}
		}
		return []txgraph.Node{0, txgraph.Node(u - 1)}
	}, outs
}

// overspentStream is n transactions that each declare one output and spend
// their predecessor, every third one the transaction before that as well:
// that one is spent out by its first spender and named again past its
// count, so a placer retires every node and counts late references.
func overspentStream(n int) (inputs func(u int) []txgraph.Node, outs []int) {
	outs = make([]int, n)
	for u := range outs {
		outs[u] = 1
	}
	return func(u int) []txgraph.Node {
		switch {
		case u == 0:
			return nil
		case u%3 == 0:
			return []txgraph.Node{txgraph.Node(u - 2), txgraph.Node(u - 1)}
		}
		return []txgraph.Node{txgraph.Node(u - 1)}
	}, outs
}

// FuzzRestoreState reads arbitrary bytes as a T2S state section and
// restores it both ways. The two must refuse the same inputs with the same
// error text and accept the same ones into the same state, to the layout.
func FuzzRestoreState(f *testing.F) {
	const k, txs, cut = 16, 400, 250
	seed := func(inputs func(int) []txgraph.Node, outs []int) {
		p := NewOptChain(OptChainConfig{K: k, N: txs})
		p.Scores().SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		for u := 0; u < cut; u++ {
			p.Place(txgraph.Node(u), inputs(u))
		}
		f.Add(stateOf(f, p))
	}
	for _, spec := range []string{"bitcoin", "hotspot", mixIDsSpec} {
		seed(streamOf(f, spec, txs, k))
	}
	seed(wideStream(txs))
	seed(overspentStream(txs))
	// Hand-built sections: a sound one with wide counts, retired nodes and
	// late references, then one planted case of each rule the restore
	// keeps.
	asn := []uint16{0, 1, 2, 3, 0, 1, 2, 3}
	outs := counts(70_000, 300, 1<<20, 0)
	degs := counts(4464, 9, manyOuts, 5)
	lens, slabS, slabV := []uint16{1, 2, 1, 1}, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5}
	const heldBits = 0b0010_1011
	f.Add(corruptSectionRefs(2, k, asn, []uint64{heldBits}, outs, degs, lens, slabS, slabV))
	for _, planted := range [][]byte{
		// A padding bit in the assignment: one decision, and its word's top bit.
		binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 1), 1<<63),
		// A bitmap of two words for eight nodes, and a bitmap bit past them.
		corruptSection(k, asn, []uint64{heldBits, 0}, outs, degs, lens, slabS, slabV),
		corruptSection(k, asn, []uint64{heldBits | 1<<9}, outs, degs, lens, slabS, slabV),
		// Late references past what an int64 counts.
		corruptSectionRefs(1<<63, k, asn, []uint64{heldBits}, outs, degs, lens, slabS, slabV),
		// 2 marked held, spent out exactly.
		corruptSection(k, asn, []uint64{heldBits | 1<<2}, counts(70_000, 300, manyOuts, 1<<20, 0), counts(4464, 9, manyOuts, manyOuts, 5), []uint16{1, 2, 0, 1, 1}, slabS, slabV),
		// 6 marked held, spent past its count.
		corruptSection(k, asn, []uint64{heldBits | 1<<6}, counts(70_000, 300, 1<<20, 0, 2), counts(4464, 9, manyOuts, 5, 4), []uint16{1, 2, 1, 1, 0}, slabS, slabV),
		// Held columns one value short of the bitmap's popcount.
		corruptSection(k, asn, []uint64{heldBits}, outs, counts(4464, 9, manyOuts), lens, slabS, slabV),
		corruptSection(k, asn, []uint64{heldBits}, counts(70_000, 300, 1<<20), degs, lens, slabS, slabV),
		corruptSection(k, asn, []uint64{heldBits}, outs, degs, lens[:3], slabS, slabV),
		// Spans that do not tile the slab: one entry short, one too many.
		corruptSection(k, asn, []uint64{heldBits}, outs, degs, lens, slabS[:4], slabV[:4]),
		corruptSection(k, asn, []uint64{heldBits}, outs, degs, lens, append(slabS, 0), append(slabV, 6)),
		// Two defects, the first one a span's: refused naming the first.
		corruptSection(k, []uint16{0, 0}, []uint64{0b11}, counts(0, 0), counts(0, 0), []uint16{2, 3}, []uint16{1, 1}, []uint64{1, 1}),
	} {
		f.Add(planted)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		mk := func() *T2SIndex { return NewT2SPlacer(k, txs, DefaultAlpha, 0.1).idx }
		got, want, err := restoreBoth(t, mk, data)
		if err != nil {
			return
		}
		sameState(t, got, want)
	})
}

// BenchmarkRestoreState prices the T2S restore alone, a segment at a time
// against the node-by-node oracle, on a 200k-transaction mix-ids section
// at k = 16 (ns/tx is per restored transaction).
func BenchmarkRestoreState(b *testing.B) {
	const k, txs = 16, 200_000
	inputs, outs := streamOf(b, mixIDsSpec, txs, k)
	outCounts := func(v txgraph.Node) int { return outs[v] }
	p := NewOptChain(OptChainConfig{K: k, N: txs})
	p.Scores().SetOutCounts(outCounts)
	for u := 0; u < txs; u++ {
		p.Place(txgraph.Node(u), inputs(u))
	}
	var buf bytes.Buffer
	w := placement.NewStateWriter(&buf)
	p.WriteState(w)
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, r := range []struct {
		name    string
		restore func(*T2SIndex, *placement.StateReader) error
	}{{"segments", (*T2SIndex).restoreState}, {"oracle", (*T2SIndex).restoreStateOracle}} {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := NewT2SIndex(DefaultAlpha, 0, placement.NewAssignment(k, txs), txs)
				if err := r.restore(idx, placement.NewStateReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/txs, "ns/tx")
		})
	}
}
