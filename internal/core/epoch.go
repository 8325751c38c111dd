package core

import (
	"fmt"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// Parallel epoch support for the T2S state (see internal/placement's
// Sharder/EpochWorker contract). One epoch freezes the committed slab — it
// is immutable between commits by construction, so workers read it without
// coordination — and gives each worker a chunk-local extension arena:
// its own slab columns, end offsets, out-degrees, decisions, and shard tallies.
//
// Divisor reconciliation: the online |Nout(v)| estimate counts spenders,
// and spenders of a pre-chunk transaction can sit in any chunk. Each worker
// tracks its spends of non-chunk transactions in a degDelta map; for
// pre-epoch inputs the worker's own delta joins the frozen global degree
// (matching what a serial run would have counted for this chunk's spends),
// and at Join all deltas are folded into the global degrees — a commutative
// keyed accumulation, so the merged state is independent of timing.
//
// References into [base, start) — committed by a concurrent chunk of the
// same epoch — contribute no score mass (their vectors are not yet
// joined); the worker counts them so drift is measured, never assumed.
// With one worker that window is empty and every arithmetic step matches
// the serial path bit for bit.
//
// Nothing is retired inside an epoch: workers read the frozen arena, and a
// node whose last output an epoch spends is retired at Join, when its
// degree is folded in. On a stream that spends no more outputs than were
// declared nothing names such a node again, so decisions are unaffected.

// t2sWorker is one worker's chunk-local T2S state for the current epoch.
type t2sWorker struct {
	idx              *T2SIndex
	base, start, end int

	// Chunk-local extension of the frozen arena: contiguous columns (they
	// live for one epoch), wEnds[i+1] one past the i-th local vector.
	wShards []uint16
	wVals   []uint64
	wEnds   []int
	wDeg    []int32

	dec    []int32 // decisions for [start, end), in order
	counts []int64 // frozen tallies + this chunk's own placements

	degDelta map[txgraph.Node]int32 // spends of transactions before start

	refs, crossRefs int64

	tally t2sTally
}

func newT2SWorker(idx *T2SIndex) *t2sWorker {
	w := &t2sWorker{
		idx:      idx,
		counts:   make([]int64, idx.asn.K()),
		degDelta: make(map[txgraph.Node]int32),
	}
	w.tally.init(idx.asn.K())
	return w
}

// divisor returns |Nout(v)| for one input of an epoch worker: the output
// count when known, otherwise the online spenders-so-far estimate deg.
func (t *T2SIndex) divisor(v txgraph.Node, deg int32) int64 {
	if t.outCounts != nil {
		if c := t.outCounts(v); c > 0 {
			return int64(c)
		}
	}
	return int64(deg)
}

// forkWorker returns the i-th cached worker, reset for an epoch over
// [start, end) with base pre-epoch transactions. The index's outCounts
// source, when set, must be safe for concurrent read-only calls during the
// epoch (the engine's and the dataset's both are).
func (t *T2SIndex) forkWorker(i, base, start, end int) *t2sWorker {
	for len(t.workers) <= i {
		t.workers = append(t.workers, newT2SWorker(t))
	}
	w := t.workers[i]
	w.base, w.start, w.end = base, start, end
	w.wShards = w.wShards[:0]
	w.wVals = w.wVals[:0]
	w.wEnds = append(w.wEnds[:0], 0)
	w.wDeg = w.wDeg[:0]
	w.dec = w.dec[:0]
	w.counts = append(w.counts[:0], t.asn.CountsView()...)
	clear(w.degDelta)
	w.refs, w.crossRefs = 0, 0
	w.tally.hasPending = false
	return w
}

// prepare is the chunk-local Prepare: identical arithmetic to
// T2SIndex.Prepare, reading committed vectors from the frozen global arena
// or the worker's own extension, and skipping (while counting) references
// into concurrent chunks.
//
//optchain:hotpath the parallel T2S score maintenance loop.
func (w *t2sWorker) prepare(u txgraph.Node, inputs []txgraph.Node) []float64 {
	t := w.idx
	for _, v := range inputs {
		w.refs++
		iv := int(v)
		switch {
		case iv >= w.start:
			// Placed by this worker: local degree, local vector.
			li := iv - w.start
			w.wDeg[li]++
			lo, hi := w.wEnds[li], w.wEnds[li+1]
			w.tally.accumulate(w.wShards[lo:hi], w.wVals[lo:hi], t.divisor(v, w.wDeg[li]))
		case iv >= w.base:
			// Concurrent chunk: the spend still counts toward |Nout(v)|
			// (reconciled at Join) but the vector is not visible yet.
			w.degDelta[v]++
			w.crossRefs++
		default:
			// Pre-epoch: frozen vector; degree = frozen + our own spends.
			w.degDelta[v]++
			shards, vals := t.vec(v)
			w.tally.accumulate(shards, vals, t.divisor(v, t.nodes[v].deg+w.degDelta[v]))
		}
	}
	w.tally.finish(u, t.scaleQ)
	return w.tally.dense(w.counts, t.normalize)
}

// commit is the chunk-local Commit: the α splice and truncation of
// T2SIndex.Commit into the worker's extension arena, plus the decision and
// tally bookkeeping the serial path delegates to the Assignment.
//
//optchain:hotpath one call per epoch transaction.
func (w *t2sWorker) commit(u txgraph.Node, shard int) {
	t := w.idx
	shards, vals := w.tally.seal(uint16(shard), t.alphaQ, t.truncQ)
	w.wShards = append(w.wShards, shards...)
	w.wVals = append(w.wVals, vals...)
	w.wEnds = append(w.wEnds, len(w.wShards))
	w.wDeg = append(w.wDeg, 0)
	w.dec = append(w.dec, int32(shard))
	w.counts[shard]++
}

// joinWorkers folds the chunk-local arenas back into the shared index, in
// chunk order: add each worker's vectors one by one (the same routine
// Commit uses), carry the local degrees over, then apply the worker's
// degree deltas — by then every node a delta references has been added.
// The fold is appends, slot reuse and commutative integer adds, so the
// joined vectors, degrees and liveness depend only on the epoch's inputs
// and partition, never on worker timing (which free slot a length reuses
// first can differ; layout never enters the arithmetic).
func (t *T2SIndex) joinWorkers(ws []*t2sWorker) {
	for _, w := range ws {
		first := len(t.nodes)
		for i := range w.wDeg {
			lo, hi := w.wEnds[i], w.wEnds[i+1]
			if err := t.appendVec(w.wShards[lo:hi], w.wVals[lo:hi]); err != nil {
				panic(err) // the Engine reports it as the batch's failure
			}
		}
		for i, d := range w.wDeg {
			t.addSpenders(txgraph.Node(first+i), d)
		}
		//optchain:unordered degrees and counters add up commutatively; the order only picks which of two equally long free slots is reused first
		for v, d := range w.degDelta {
			t.addSpenders(v, d)
		}
	}
}

// t2sPlacerWorker runs the T2S-based strategy over one chunk.
type t2sPlacerWorker struct {
	p *T2SPlacer
	w *t2sWorker
}

// Place implements placement.EpochWorker.
//
//optchain:hotpath one call per epoch transaction.
func (pw *t2sPlacerWorker) Place(u txgraph.Node, inputs []txgraph.Node) int {
	scores := pw.w.prepare(u, inputs)
	best := pw.p.selectShard(scores, pw.w.counts)
	pw.w.commit(u, best)
	return best
}

// Refs implements placement.EpochWorker.
func (pw *t2sPlacerWorker) Refs() (int64, int64) { return pw.w.refs, pw.w.crossRefs }

// Fork implements placement.Sharder.
func (p *T2SPlacer) Fork(i, base, start, end int) placement.EpochWorker {
	for len(p.workers) <= i {
		p.workers = append(p.workers, &t2sPlacerWorker{p: p})
	}
	pw := p.workers[i]
	pw.w = p.idx.forkWorker(i, base, start, end)
	return pw
}

// Join implements placement.Sharder.
func (p *T2SPlacer) Join(ws []placement.EpochWorker) {
	p.idx.joinWorkers(t2sWorkersOf(ws, "T2SPlacer"))
	placeDecisions(p.idx.asn, ws)
}

// optChainWorker runs the full OptChain rule over one chunk.
type optChainWorker struct {
	p        *OptChainPlacer
	w        *t2sWorker
	shardBuf []int
	latBuf   []float64
}

// inputShards mirrors Assignment.InputShards over the worker's split view:
// decisions before the epoch come from the shared assignment, in-chunk
// decisions from the worker, and concurrent-chunk inputs are excluded from
// the lock round (already counted as cross-chunk drift by prepare).
//
//optchain:hotpath runs once per epoch transaction.
func (pw *optChainWorker) inputShards(inputs []txgraph.Node) []int {
	buf := pw.shardBuf[:0]
	w := pw.w
	for _, v := range inputs {
		iv := int(v)
		var s int
		switch {
		case iv >= w.start:
			s = int(w.dec[iv-w.start])
		case iv >= w.base:
			continue
		default:
			s = w.idx.asn.ShardOf(v)
		}
		dup := false
		for _, seen := range buf {
			if seen == s {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, s)
		}
	}
	pw.shardBuf = buf
	return buf
}

// Place implements placement.EpochWorker.
//
//optchain:hotpath one call per epoch transaction.
func (pw *optChainWorker) Place(u txgraph.Node, inputs []txgraph.Node) int {
	scores := pw.w.prepare(u, inputs)
	best := pw.p.selectShard(scores, pw.w.counts, pw.inputShards(inputs), pw.latBuf)
	pw.w.commit(u, best)
	return best
}

// Refs implements placement.EpochWorker.
func (pw *optChainWorker) Refs() (int64, int64) { return pw.w.refs, pw.w.crossRefs }

// Fork implements placement.Sharder. The configured LatencyModel must be
// safe for concurrent ProofLatency calls (the models in this package are
// stateless; the simulation's live telemetry is read-only between events).
func (p *OptChainPlacer) Fork(i, base, start, end int) placement.EpochWorker {
	for len(p.workers) <= i {
		p.workers = append(p.workers, &optChainWorker{
			p:      p,
			latBuf: make([]float64, p.idx.asn.K()),
		})
	}
	pw := p.workers[i]
	pw.w = p.idx.forkWorker(i, base, start, end)
	return pw
}

// Join implements placement.Sharder.
func (p *OptChainPlacer) Join(ws []placement.EpochWorker) {
	p.idx.joinWorkers(optChainWorkersOf(ws))
	placeDecisions(p.idx.asn, ws)
}

// t2sWorkersOf unwraps the index workers in chunk order.
func t2sWorkersOf(ws []placement.EpochWorker, who string) []*t2sWorker {
	out := make([]*t2sWorker, 0, len(ws))
	for _, ew := range ws {
		pw, ok := ew.(*t2sPlacerWorker)
		if !ok {
			panic(fmt.Sprintf("core: %s.Join given %T", who, ew))
		}
		out = append(out, pw.w)
	}
	return out
}

func optChainWorkersOf(ws []placement.EpochWorker) []*t2sWorker {
	out := make([]*t2sWorker, 0, len(ws))
	for _, ew := range ws {
		pw, ok := ew.(*optChainWorker)
		if !ok {
			panic(fmt.Sprintf("core: OptChainPlacer.Join given %T", ew))
		}
		out = append(out, pw.w)
	}
	return out
}

// placeDecisions records every worker's decisions in the shared assignment,
// in chunk order — the joined equivalent of the per-transaction asn.Place
// the serial placers issue.
func placeDecisions(asn *placement.Assignment, ws []placement.EpochWorker) {
	u := txgraph.Node(asn.Len())
	for _, ew := range ws {
		var dec []int32
		switch w := ew.(type) {
		case *t2sPlacerWorker:
			dec = w.w.dec
		case *optChainWorker:
			dec = w.w.dec
		}
		for _, s := range dec {
			asn.Place(u, int(s))
			u++
		}
	}
}

// Compile-time interface compliance checks.
var (
	_ placement.Sharder = (*T2SPlacer)(nil)
	_ placement.Sharder = (*OptChainPlacer)(nil)
)
