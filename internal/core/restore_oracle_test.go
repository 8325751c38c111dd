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

// restoreStateOracle is the restore as it was before it became one pass:
// every vector is re-added through extend, the routine Commit lays vectors
// out with, and its out-degree is then folded in by addSpenders, which
// retires the node when that spends its last output (and gives it its
// record back when the spenders go past it). Each count is read
// from the section's output-count column as extend reads a source. It
// slices the columns off with the section reader but decodes their elements
// itself, a node at a time, the counts through oracleCount. It is the
// reference restoreState is held to.
func (t *T2SIndex) restoreStateOracle(r *placement.StateReader) error {
	if len(t.words) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.words))
	}
	outs := r.Counts()
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
	lens := r.Column(width)
	degs := r.Counts()
	slabShards := r.Column(width)
	slabVals := r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	nodes, entries := len(lens)/width, len(slabShards)/width
	if len(slabVals)/8 != entries {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	if degs.N != nodes {
		return fmt.Errorf("core: per-node columns disagree: %d spans, %d out-degrees", nodes, degs.N)
	}
	if placed := t.asn.Len(); placed != nodes {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, nodes)
	}
	if outs.N != nodes {
		return fmt.Errorf("core: %d output counts for %d transactions", outs.N, nodes)
	}
	src := t.outCounts
	defer func() { t.outCounts = src }()
	var count uint64
	t.outCounts = func(txgraph.Node) int { return int(count) }
	off, dp, op := 0, 0, 0
	for v := 0; v < nodes; v++ {
		n := elem(lens, v)
		if n > k {
			return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
		}
		if off+n > entries {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
		}
		d, next, why := oracleCount(degs.Data, dp)
		if why != "" {
			return fmt.Errorf("core: out-degree of node %d: %s", v, why)
		}
		dp = next
		if count, next, why = oracleCount(outs.Data, op); why != "" {
			return fmt.Errorf("core: output count of node %d: %s", v, why)
		}
		op = next
		if count > 0 && count <= d && n > 0 {
			return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but keeps a span of %d entries", v, d, count, n)
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
		return fmt.Errorf("core: out-degree column holds %d bytes past its %d values", len(degs.Data)-dp, nodes)
	}
	if op != len(outs.Data) {
		return fmt.Errorf("core: output-count column holds %d bytes past its %d values", len(outs.Data)-op, nodes)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
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
// degree in one step: v is retired if that spends its last output, and
// spenders past the last output give it its record back and are counted as
// Prepare counts them.
func (t *T2SIndex) addSpenders(v txgraph.Node, d int32) {
	w := t.words[v]
	nd := t.rec(w)
	before := nd.deg
	deg := before + d
	t.wideDegs += placement.UvarintLen(uint64(deg)) - placement.UvarintLen(uint64(before))
	outs := t.outCount(v, nd.outs)
	nd.deg = deg
	if outs == 0 || deg < outs {
		return
	}
	if before < outs {
		t.retire(v, w, outs)
		before = outs
	}
	if deg > outs {
		t.rec(t.revive(v, t.words[v])).deg = deg
		t.retiredRefs += int64(deg - before)
	}
}

// sameLogical fails unless both indexes hold the same node count, live
// vectors, out-degrees and output counts (the large ones included), entry
// counters, retired counters, uvarint byte totals and assignment; where
// each laid its slab and its records out is free to differ, and so is
// which nodes keep a record.
func sameLogical(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	if len(got.words) != len(want.words) || got.entries != want.entries || got.committed != want.committed {
		t.Fatalf("%d nodes, %d entries held, %d committed; want %d, %d, %d",
			len(got.words), got.entries, got.committed, len(want.words), want.entries, want.committed)
	}
	if got.wideOuts != want.wideOuts || got.wideDegs != want.wideDegs {
		t.Fatalf("output counts and out-degrees take %d and %d bytes past one a node, want %d and %d",
			got.wideOuts, got.wideDegs, want.wideOuts, want.wideDegs)
	}
	if got.retiredTxs != want.retiredTxs || got.retiredRefs != want.retiredRefs {
		t.Fatalf("retired %d txs / %d refs, want %d / %d", got.retiredTxs, got.retiredRefs, want.retiredTxs, want.retiredRefs)
	}
	if !slices.Equal(got.bigOuts, want.bigOuts) {
		t.Fatalf("large output counts %v, want %v", got.bigOuts, want.bigOuts)
	}
	for v := range want.words {
		g, w := got.node(txgraph.Node(v)), want.node(txgraph.Node(v))
		gs, gv := got.vec(txgraph.Node(v))
		ws, wv := want.vec(txgraph.Node(v))
		if g.deg != w.deg || g.outs != w.outs || !slices.Equal(gs, ws) || !slices.Equal(gv, wv) {
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

// sameState is sameLogical plus the slab's layout: every span at the same
// offset, the same chunk count, chunk lengths and contents, current chunk
// and free-list heads. Which record each node has is not compared.
func sameState(t testing.TB, got, want *T2SIndex) {
	t.Helper()
	sameLogical(t, got, want)
	for v := range want.words {
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
	col := r.Counts()
	if r.Err() != nil || col.N != len(idx.words) {
		t.Fatalf("an output-count column of %d values for %d nodes (%v)", col.N, len(idx.words), r.Err())
	}
	return col.Data
}

const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// TestRestoreMatchesOracle: on snapshots of the benchmark's three streams,
// at k = 16 and 64, cut before the first transaction, after it, with the
// current chunk part filled, and at 200k, the two-pass restore builds
// exactly the index the vector-by-vector one builds: node records, chunks,
// current chunk, free lists, counters and assignment. The output counts
// come from the section's own count column, which holds the stream's. A writer that retires
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
				if !bytes.Equal(outsOf(t, p.idx), countColumn(outs[:cut])) {
					t.Fatalf("%s: the placer's output-count column is not the stream's counts", id)
				}
				got, want, err := restoreBoth(t, mk, stateOf(t, p))
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				sameState(t, got, want)
				if got.entries != p.idx.entries || got.retiredTxs != p.idx.retiredTxs || got.wideOuts != p.idx.wideOuts || got.wideDegs != p.idx.wideDegs {
					t.Fatalf("%s: restored %d entries, %d retired, %d and %d wide count bytes; the placer holds %d, %d, %d, %d", id,
						got.entries, got.retiredTxs, got.wideOuts, got.wideDegs, p.idx.entries, p.idx.retiredTxs, p.idx.wideOuts, p.idx.wideDegs)
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
// confused with their low 16 bits), nodes spent out exactly and past their
// count, and a span kept for a spent-out node, which both refuse.
func TestRestoreOracleSections(t *testing.T) {
	const k = 4
	outs := []int{70_000, 300, manyOuts, 1 << 20, 2, 0, 2, 3}
	col := counts(70_000, 300, manyOuts, 1<<20, 2, 0, 2, 3)
	mk := func() *T2SIndex { return NewT2SPlacer(k, 16, DefaultAlpha, 0.1).idx }
	asn := []uint16{0, 1, 2, 3, 0, 1, 2, 3}
	// 0 has had 4464 = 70000 mod 2^16 spenders and 3 as many as a record
	// can count, both live; 2, 4 and 7 are spent out exactly (their spans
	// gone), 6 past its count.
	degs := counts(4464, 9, manyOuts, manyOuts, 2, 5, 4, 3)
	got, want, err := restoreBoth(t, mk, corruptSection(col, asn,
		[]uint16{1, 2, 0, 1, 0, 1, 0, 0}, degs, []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if txs, refs := got.Retired(); txs != 4 || refs != 2 || got.entries != 5 || got.node(0).n != 1 || got.node(3).n != 1 {
		t.Fatalf("%d retired, %d late references, %d entries held, spans %+v and %+v", txs, refs, got.entries, got.node(0), got.node(3))
	}
	if back := outsOf(t, got); !bytes.Equal(back, countColumn(outs)) {
		t.Fatalf("output counts written back as % x, want % x", back, countColumn(outs))
	}
	if len(got.bigOuts) != 3 || got.node(0).outs != 70_000 || got.node(2).outs != manyOuts {
		t.Fatalf("large output counts %v", got.bigOuts)
	}
	// 70000, 2^20 and 65535 take 3 bytes, 300 two; 4464 two, 65535 three.
	if got.wideOuts != 2+2+2+1 || got.wideDegs != 1+2+2 {
		t.Fatalf("output counts take %d bytes past one a node, out-degrees %d: want 7 and 5", got.wideOuts, got.wideDegs)
	}

	// The same nodes with every span still in the section: the first spent-out
	// node that keeps one is named.
	section := corruptSection(col, asn,
		[]uint16{1, 2, 1, 1, 2, 1, 1, 3}, degs,
		[]uint16{0, 0, 1, 2, 3, 0, 3, 1, 2, 0, 1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if _, _, err = restoreBoth(t, mk, section); err == nil || !strings.Contains(err.Error(), "node 2 has had 65535 spenders of its 65535 outputs but keeps a span of 1 entries") {
		t.Fatalf("a span of a spent-out node: %v", err)
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
// count, so a placer's section holds nodes spent out exactly and nodes
// spent past their count, both with no span.
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
	f.Add(corruptSection(counts(70_000, 300, 2), []uint16{0, 1, 2},
		[]uint16{1, 2, 1}, counts(4464, 9, 2), []uint16{0, 0, 1, 2}, []uint64{1, 2, 3, 4}))
	// Two defects, the first one a second-pass one: refused naming the first.
	f.Add(corruptSection(counts(0, 0), []uint16{0, 0},
		[]uint16{2, 3}, counts(0, 0), []uint16{1, 1}, []uint64{1, 1}))
	f.Add(corruptSection(counts(70_000, 300, manyOuts, 1<<20, 2, 0, 2, 3), []uint16{0, 1, 2, 3, 0, 1, 2, 3},
		[]uint16{1, 2, 0, 1, 0, 1, 0, 0}, counts(4464, 9, manyOuts, manyOuts, 2, 5, 4, 3), []uint16{0, 0, 1, 2, 3}, []uint64{1, 2, 3, 4, 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		mk := func() *T2SIndex { return NewT2SPlacer(k, txs, DefaultAlpha, 0.1).idx }
		got, want, err := restoreBoth(t, mk, data)
		if err != nil {
			return
		}
		sameState(t, got, want)
	})
}

// BenchmarkRestoreState prices the T2S restore alone, two-pass against the
// oracle, on a 200k-transaction mix-ids section at k = 16 (ns/tx is per
// restored transaction).
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
	}{{"two-pass", (*T2SIndex).restoreState}, {"oracle", (*T2SIndex).restoreStateOracle}} {
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
