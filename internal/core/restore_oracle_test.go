package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// restoreStateOracle is the restore as it was before it became one pass:
// every vector is re-added through extend, the routine Commit lays vectors
// out with, and its out-degree is then folded in by addSpenders, which
// retires the node (freeing the slot it was just given) when that spends
// its last output. Each count is read from outs as extend reads a source.
// It is the reference RestoreState is held to.
func (t *T2SIndex) restoreStateOracle(r *placement.StateReader, outs []byte) error {
	if len(t.nodes) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.nodes))
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	lens := r.Column(2)
	outDeg := r.Column(4)
	slabShards := r.Column(2)
	slabVals := r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	nodes, entries := len(lens)/2, len(slabShards)/2
	if len(slabVals)/8 != entries {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	if len(outDeg)/4 != nodes {
		return fmt.Errorf("core: per-node columns disagree: %d spans, %d out-degrees", nodes, len(outDeg)/4)
	}
	if placed := t.asn.Len(); placed != nodes {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, nodes)
	}
	if outs == nil {
		outs = t.askOutCounts(nodes)
	} else if len(outs) != 4*nodes {
		return fmt.Errorf("core: %d bytes of output counts for %d transactions", len(outs), nodes)
	}
	src := t.outCounts
	defer func() { t.outCounts = src }()
	t.outCounts = func(v txgraph.Node) int { return int(int32(binary.LittleEndian.Uint32(outs[4*v:]))) }
	t.Reserve(nodes, entries)
	k := t.asn.K()
	off := 0
	for v := 0; v < nodes; v++ {
		n := int(binary.LittleEndian.Uint16(lens[2*v:]))
		if n > k {
			return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
		}
		if off+n > entries {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
		}
		d := int32(binary.LittleEndian.Uint32(outDeg[4*v:]))
		if d < 0 {
			return fmt.Errorf("core: negative out-degree %d at node %d", d, v)
		}
		shards, vals, err := t.extend(n)
		if err != nil {
			return err
		}
		srcS, srcV := slabShards[2*off:2*(off+n)], slabVals[8*off:8*(off+n)]
		for i := range shards {
			s := binary.LittleEndian.Uint16(srcS[2*i:])
			if int(s) >= k {
				return fmt.Errorf("core: slab entry %d names shard %d of %d", off+i, s, k)
			}
			if i > 0 && s <= shards[i-1] {
				return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", off+i, s, shards[i-1])
			}
			shards[i] = s
			vals[i] = binary.LittleEndian.Uint64(srcV[8*i:])
		}
		off += n
		t.addSpenders(txgraph.Node(v), d)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	return nil
}

// addSpenders folds d more spenders of v into its degree in one step: v is
// retired if that spends its last output, and spenders past the last output
// are counted as Prepare counts them.
func (t *T2SIndex) addSpenders(v txgraph.Node, d int32) {
	nd := &t.nodes[v]
	before := nd.deg
	nd.deg += d
	outs := t.outCount(v, nd.outs)
	if outs == 0 || nd.deg < outs {
		return
	}
	if before < outs {
		t.retire(nd)
		before = outs
	}
	t.retiredRefs += int64(nd.deg - before)
}

// sameLogical fails unless both indexes hold the same node count, live
// vectors, out-degrees and output counts (the large ones included), entry
// counters, retired counters and assignment; where each laid its slab out
// is free to differ.
func sameLogical(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) || got.entries != want.entries || got.committed != want.committed {
		t.Fatalf("%d nodes, %d entries held, %d committed; want %d, %d, %d",
			len(got.nodes), got.entries, got.committed, len(want.nodes), want.entries, want.committed)
	}
	if got.retiredTxs != want.retiredTxs || got.retiredRefs != want.retiredRefs {
		t.Fatalf("retired %d txs / %d refs, want %d / %d", got.retiredTxs, got.retiredRefs, want.retiredTxs, want.retiredRefs)
	}
	if !slices.Equal(got.bigOuts, want.bigOuts) {
		t.Fatalf("large output counts %v, want %v", got.bigOuts, want.bigOuts)
	}
	for v := range want.nodes {
		g, w := got.nodes[v], want.nodes[v]
		gs, gv := got.vec(txgraph.Node(v))
		ws, wv := want.vec(txgraph.Node(v))
		if g.deg != w.deg || g.outs != w.outs || g.n != w.n || !slices.Equal(gs, ws) || !slices.Equal(gv, wv) {
			t.Fatalf("node %d: %+v %v %v, want %+v %v %v", v, g, gs, gv, w, ws, wv)
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

// sameState is sameLogical plus the layout: identical node records, chunk
// count, chunk lengths and contents, current chunk and free-list heads.
func sameState(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	sameLogical(t, got, want)
	if !slices.Equal(got.nodes, want.nodes) {
		for v := range want.nodes {
			if got.nodes[v] != want.nodes[v] {
				t.Fatalf("node %d: record %+v, want %+v", v, got.nodes[v], want.nodes[v])
			}
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
}

// restoreBoth restores one section with the output counts outs through
// RestoreState and through the oracle into two fresh indexes built by mk,
// and fails unless both accept or refuse it with the same error and consume
// the same bytes.
func restoreBoth(t testing.TB, mk func() *T2SIndex, section, outs []byte) (got, want *T2SIndex, err error) {
	t.Helper()
	got, want = mk(), mk()
	rg, rw := placement.NewStateReader(section), placement.NewStateReader(section)
	err = got.RestoreState(rg, outs)
	errW := want.restoreStateOracle(rw, outs)
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

// countColumn is the elements of an output-count column holding outs.
func countColumn(outs []int) []byte {
	var b []byte
	for _, o := range outs {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(o)))
	}
	return b
}

// outsOf writes an index's output-count column and returns its elements.
func outsOf(t testing.TB, idx *T2SIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := placement.NewStateWriter(&buf)
	idx.WriteOutCounts(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := placement.NewStateReader(buf.Bytes())
	col := r.Column(4)
	if r.Err() != nil || r.Len() != 0 || len(col) != 4*len(idx.nodes) {
		t.Fatalf("an output-count column of %d bytes for %d nodes (%v, %d left over)", len(col), len(idx.nodes), r.Err(), r.Len())
	}
	return col
}

const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// TestRestoreMatchesOracle: on snapshots of the benchmark's three streams,
// at k = 16 and 64, cut before the first transaction, after it, with the
// current chunk part filled, and at 200k, the two-pass restore builds
// exactly the index the vector-by-vector one builds: node records, chunks,
// current chunk, free lists, counters and assignment. The output counts
// come from the placer's own count column, which holds the stream's. A writer that retires
// leaves no span on a spent-out node, so there the oracle frees nothing and
// the layouts agree to the slot. Sections only an older writer or a corrupt
// file holds are below.
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
				col := outsOf(t, p.idx)
				if !bytes.Equal(col, countColumn(outs[:cut])) {
					t.Fatalf("%s: the placer's output-count column is not the stream's counts", id)
				}
				got, want, err := restoreBoth(t, mk, stateOf(t, p), col)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				sameState(t, got, want)
				if got.entries != p.idx.entries || got.retiredTxs != p.idx.retiredTxs {
					t.Fatalf("%s: restored %d entries, %d retired; the placer holds %d, %d", id, got.entries, got.retiredTxs, p.idx.entries, p.idx.retiredTxs)
				}
				if n := len(got.slabS[got.cur]); got.cur > 0 && n > 0 && n < 1<<got.chunkBits {
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
// stream here produces: output counts past what the node record holds
// (kept beside it, and never confused with their low 16 bits), negative
// ones (unknown, and written back as 0), nodes spent out exactly and past
// their count,
// and spans of spent-out nodes that an older writer kept. There the oracle
// lays the dead vector out and frees it, the one-pass restore never lays it
// out, so only the logical state is compared, and the packed layout is
// held to what it must be.
func TestRestoreOracleSections(t *testing.T) {
	const k = 4
	outs := countColumn([]int{70_000, -3, manyOuts, 1 << 20, 2, 0, 2, 3})
	mk := func() *T2SIndex { return NewT2SPlacer(k, 16, DefaultAlpha, 0.1).idx }
	asn := []uint16{0, 1, 2, 3, 0, 1, 2, 3}
	// 0 has had 4464 = 70000 mod 2^16 spenders and 3 as many as a record
	// can count, both live; 2, 4 and 7 are spent out exactly (their spans
	// gone), 6 past its count.
	degs := []int32{4464, 9, manyOuts, manyOuts, 2, 5, 4, 3}
	got, want, err := restoreBoth(t, mk, corruptSection(asn,
		[]uint16{1, 2, 0, 1, 0, 1, 0, 0}, degs, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5}), outs)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if txs, refs := got.Retired(); txs != 4 || refs != 2 || got.entries != 5 || got.nodes[0].n != 1 || got.nodes[3].n != 1 {
		t.Fatalf("%d retired, %d late references, %d entries held, spans %+v", txs, refs, got.entries, got.nodes)
	}
	if back, want := outsOf(t, got), countColumn([]int{70_000, 0, manyOuts, 1 << 20, 2, 0, 2, 3}); !bytes.Equal(back, want) {
		t.Fatalf("output counts written back as %v, want %v", back, want)
	}
	if len(got.bigOuts) != 3 || got.outCount(0, got.nodes[0].outs) != 70_000 || got.outCount(2, got.nodes[2].outs) != manyOuts {
		t.Fatalf("large output counts %v", got.bigOuts)
	}

	// The same nodes with every span still in the section: 2, 4, 6 and 7 are
	// dropped on load.
	section := corruptSection(asn,
		[]uint16{1, 2, 1, 1, 2, 1, 1, 3}, degs,
		[]uint16{0, 0, 1, 2, 3, 0, 3, 1, 2, 0, 1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	got, want, err = restoreBoth(t, mk, section, outs)
	if err != nil {
		t.Fatal(err)
	}
	sameLogical(t, got, want)
	var offs []uint32
	for _, nd := range got.nodes {
		if nd.n != 0 {
			offs = append(offs, nd.off)
		}
	}
	if !slices.Equal(offs, []uint32{0, 1, 3, 4}) || len(got.slabS[0]) != 5 || freeSlots(got) != 0 || freeSlots(want) == 0 {
		t.Fatalf("live vectors at %v in a chunk of %d, %d free slots (the oracle %d): want 0 1 3 4, 5, 0, some",
			offs, len(got.slabS[0]), freeSlots(got), freeSlots(want))
	}
}

// engineSection reads an engine snapshot (format 2) far enough to return
// its shard count, the elements of its output-count column and the
// strategy's state section.
func engineSection(t testing.TB, snap []byte) (shards int, outs, section []byte) {
	t.Helper()
	r := placement.NewStateReader(snap[len("OPTCHSNP") : len(snap)-4])
	r.Uvarint()               // format version
	r.Bytes(int(r.Uvarint())) // strategy
	shards = int(r.Uvarint())
	r.Uvarint() // alpha
	r.Uvarint() // L2S weight
	r.Byte()    // reserved
	for range 7 {
		r.Uvarint() // capacity hint, placed, cross total and count, three reserved
	}
	outs = r.Column(4)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return shards, outs, snap[len(snap)-4-r.Len() : len(snap)-4]
}

// TestRestoreOracleAllLiveFixtures: the two snapshots written before
// transactions were retired carry the vectors of spent-out transactions.
// Restored both ways, they hold the same vectors and counters, and both
// indexes go on to make the same decisions. The layouts differ, and the
// test says how: the oracle leaves the dead vectors' slots behind (free, or
// reused by later vectors of their length), the one-pass restore packs.
func TestRestoreOracleAllLiveFixtures(t *testing.T) {
	engine, err := os.ReadFile("../../testdata/snapshot_pr21_bitcoin_250.bin")
	if err != nil {
		t.Fatal(err)
	}
	serveFile, err := os.ReadFile("../../serve/testdata/state_pr21_hotspot_200.bin")
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string][]byte{
		"bitcoin_250": engine,
		"hotspot_200": serveFile[bytes.Index(serveFile, []byte("OPTCHSNP")) : len(serveFile)-4],
	} {
		k, outs, section := engineSection(t, snap)
		outCounts := func(txgraph.Node) int { return 1 } // asked only about the transactions placed after the restore
		var a, b *OptChainPlacer
		mk := func() *T2SIndex {
			p := NewOptChain(OptChainConfig{K: k, N: 400})
			p.Scores().SetOutCounts(outCounts)
			if a == nil {
				a = p
			} else {
				b = p
			}
			return p.Scores()
		}
		got, want, err := restoreBoth(t, mk, section, outs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameLogical(t, got, want)
		if got.committed == got.entries {
			t.Fatalf("%s: no spent-out span in the fixture", name)
		}
		t.Logf("%s: %d of %d entries live; the oracle's arena spans %d entries with %d slots free, the one-pass restore's %d with none",
			name, got.entries, got.committed, arena(want), freeSlots(want), arena(got))
		placed := len(got.nodes)
		for u := placed; u < placed+200; u++ {
			in := []txgraph.Node{txgraph.Node(u - 1)}
			if v := u * 7 % placed; v != u-1 {
				in = append(in, txgraph.Node(v))
			}
			if x, y := a.Place(txgraph.Node(u), in), b.Place(txgraph.Node(u), in); x != y {
				t.Fatalf("%s: transaction %d placed in shard %d after the one-pass restore, %d after the oracle", name, u, x, y)
			}
		}
		sameLogical(t, got, want)
	}
}

// arena counts the slab entries handed out: live vectors, free slots and
// chunk-end padding.
func arena(idx *T2SIndex) int {
	n := 0
	for _, c := range idx.slabS {
		n += len(c)
	}
	return n
}

// FuzzRestoreState reads arbitrary bytes as an output-count column followed
// by a T2S state section and restores the section both ways, handing each
// the column. The two must refuse the same inputs with the same error
// text and accept the same ones into the same state: the same layout when
// no spent-out node carries a span, the same vectors and counters always.
func FuzzRestoreState(f *testing.F) {
	const k, txs, cut = 16, 400, 250
	for _, spec := range []string{"bitcoin", "hotspot", mixIDsSpec} {
		inputs, outs := streamOf(f, spec, txs, k)
		p := NewOptChain(OptChainConfig{K: k, N: txs})
		p.Scores().SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		for u := 0; u < cut; u++ {
			p.Place(txgraph.Node(u), inputs(u))
		}
		var col bytes.Buffer
		w := placement.NewStateWriter(&col)
		p.idx.WriteOutCounts(w)
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(append(col.Bytes(), stateOf(f, p)...))
	}
	engine, err := os.ReadFile("../../testdata/snapshot_pr21_bitcoin_250.bin")
	if err != nil {
		f.Fatal(err)
	}
	_, outs, section := engineSection(f, engine)
	f.Add(append(binary.AppendUvarint(nil, uint64(len(outs)/4)), append(outs, section...)...))
	f.Add(append(column(nil, []int32{70_000, -3, 2}), corruptSection([]uint16{0, 1, 2},
		[]uint16{1, 2, 1}, []int32{4464, 9, 2}, []uint16{0, 0, 1, 2}, []uint64{1, 2, 3, 4})...))
	// Two defects, the first one a second-pass one: refused naming the first.
	f.Add(append(column(nil, []int32{0, 0}), corruptSection([]uint16{0, 0},
		[]uint16{2, 3}, []int32{0, 0}, []uint16{1, 1}, []uint64{1, 1})...))
	f.Add(append(column(nil, []int32{70_000, -3, manyOuts, 1 << 20, 2, 0, 2, 3}), corruptSection([]uint16{0, 1, 2, 3, 0, 1, 2, 3},
		[]uint16{1, 2, 0, 1, 0, 1, 0, 0}, []int32{4464, 9, manyOuts, manyOuts, 2, 5, 4, 3}, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := placement.NewStateReader(data)
		col := r.Column(4)
		if r.Err() != nil {
			return
		}
		mk := func() *T2SIndex { return NewT2SPlacer(k, txs, DefaultAlpha, 0.1).idx }
		got, want, err := restoreBoth(t, mk, data[len(data)-r.Len():], col)
		if err != nil {
			return
		}
		if got.committed == got.entries {
			sameState(t, got, want)
		} else {
			sameLogical(t, got, want)
		}
	})
}

// BenchmarkRestoreState prices the T2S restore alone, two-pass against the
// oracle, on a 200k-transaction mix-ids section at k = 16, the output-count
// column included (ns/tx is per restored transaction).
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
	col := outsOf(b, p.idx)
	for _, r := range []struct {
		name    string
		restore func(*T2SIndex, *placement.StateReader, []byte) error
	}{{"two-pass", (*T2SIndex).RestoreState}, {"oracle", (*T2SIndex).restoreStateOracle}} {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := NewT2SIndex(DefaultAlpha, 0, placement.NewAssignment(k, txs), txs)
				if err := r.restore(idx, placement.NewStateReader(buf.Bytes()), col); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/txs, "ns/tx")
		})
	}
}
