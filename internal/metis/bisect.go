package metis

import "math/rand"

// initialPartition k-way partitions the coarsest graph by recursive
// bisection with greedy graph growing and FM-style refinement of each cut.
func initialPartition(g *csr, k int, imbalance float64, rng *rand.Rand) []int32 {
	part := make([]int32, g.n())
	vids := make([]int32, g.n())
	for i := range vids {
		vids[i] = int32(i)
	}
	recursiveBisect(g, vids, k, 0, part, imbalance, rng)
	return part
}

// recursiveBisect assigns parts [base, base+k) to the vertices of g; vids
// maps g's vertices to positions in out.
func recursiveBisect(g *csr, vids []int32, k int, base int32, out []int32, imbalance float64, rng *rand.Rand) {
	if k == 1 || g.n() == 0 {
		for _, ov := range vids {
			out[ov] = base
		}
		return
	}
	kL := k / 2
	kR := k - kL
	ratio := float64(kL) / float64(k)

	inA := bisect(g, ratio, imbalance, rng)

	gA, vidsA := subgraph(g, inA, vids, true)
	gB, vidsB := subgraph(g, inA, vids, false)
	recursiveBisect(gA, vidsA, kL, base, out, imbalance, rng)
	recursiveBisect(gB, vidsB, kR, base+int32(kL), out, imbalance, rng)
}

// bisect splits g into side A (true) with target weight ratio·total using
// greedy graph growing over several trials, each polished with FM passes.
// The best-cut trial wins.
func bisect(g *csr, ratio, imbalance float64, rng *rand.Rand) []bool {
	total := g.totalVWgt()
	target := int64(float64(total) * ratio)
	if target < 1 {
		target = 1
	}

	var best []bool
	var bestCut int64 = -1
	for trial := 0; trial < trials; trial++ {
		inA := growRegion(g, target, rng)
		refineBisection(g, inA, target, total, imbalance)
		cut := bisectionCut(g, inA)
		if bestCut == -1 || cut < bestCut {
			bestCut = cut
			best = inA
		}
	}
	return best
}

// growRegion grows side A from a random seed, always absorbing the frontier
// vertex with the highest gain (internal minus external connectivity),
// until A reaches the target weight.
func growRegion(g *csr, target int64, rng *rand.Rand) []bool {
	n := g.n()
	inA := make([]bool, n)
	if n == 0 {
		return inA
	}
	// gainOf holds, for frontier vertices, the edge weight into A.
	connA := make([]int64, n)
	inFrontier := make([]bool, n)
	var frontier []int32

	var weight int64
	seed := int32(rng.Intn(n))
	add := func(v int32) {
		inA[v] = true
		inFrontier[v] = false
		weight += int64(g.vwgt[v])
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			u := g.adj[e]
			if inA[u] {
				continue
			}
			connA[u] += int64(g.adjw[e])
			if !inFrontier[u] {
				inFrontier[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	add(seed)
	for weight < target {
		// Pick the frontier vertex with max connectivity into A.
		bestIdx := -1
		var bestConn int64 = -1
		for i := 0; i < len(frontier); i++ {
			v := frontier[i]
			if inA[v] || !inFrontier[v] {
				// stale entry; compact lazily
				frontier[i] = frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				i--
				continue
			}
			if connA[v] > bestConn {
				bestConn = connA[v]
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			// Disconnected: jump to any unassigned vertex.
			jump := int32(-1)
			for v := int32(0); v < int32(n); v++ {
				if !inA[v] {
					jump = v
					break
				}
			}
			if jump == -1 {
				break
			}
			add(jump)
			continue
		}
		v := frontier[bestIdx]
		frontier[bestIdx] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		add(v)
	}
	return inA
}

// refineBisection runs greedy FM-style passes: move vertices across the cut
// when the move reduces the cut (or preserves it while improving balance),
// within the balance envelope.
func refineBisection(g *csr, inA []bool, target, total int64, imbalance float64) {
	n := g.n()
	var weightA int64
	for v := 0; v < n; v++ {
		if inA[v] {
			weightA += int64(g.vwgt[v])
		}
	}
	slack := int64(float64(total) * imbalance / 2)
	if slack < 1 {
		slack = 1
	}
	minA, maxA := target-slack, target+slack

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := int32(0); v < int32(n); v++ {
			var internal, external int64
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				if inA[g.adj[e]] == inA[v] {
					internal += int64(g.adjw[e])
				} else {
					external += int64(g.adjw[e])
				}
			}
			gain := external - internal
			w := int64(g.vwgt[v])
			if inA[v] {
				newA := weightA - w
				balOK := newA >= minA
				balBetter := absDiff(newA, target) < absDiff(weightA, target)
				if (gain > 0 && balOK) || (gain == 0 && balBetter) || (weightA > maxA && balBetter && gain >= 0) {
					inA[v] = false
					weightA = newA
					moved++
				}
			} else {
				newA := weightA + w
				balOK := newA <= maxA
				balBetter := absDiff(newA, target) < absDiff(weightA, target)
				if (gain > 0 && balOK) || (gain == 0 && balBetter) || (weightA < minA && balBetter && gain >= 0) {
					inA[v] = true
					weightA = newA
					moved++
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

func bisectionCut(g *csr, inA []bool) int64 {
	var cut int64
	for v := int32(0); v < int32(g.n()); v++ {
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			if inA[v] != inA[g.adj[e]] {
				cut += int64(g.adjw[e])
			}
		}
	}
	return cut / 2
}

// subgraph extracts the vertices with inA[v] == side, dropping edges that
// cross out of the selection. It returns the subgraph and its vertex ids in
// the out array's coordinate space.
func subgraph(g *csr, inA []bool, vids []int32, side bool) (*csr, []int32) {
	n := g.n()
	remap := make([]int32, n)
	var count int32
	for v := 0; v < n; v++ {
		if inA[v] == side {
			remap[v] = count
			count++
		} else {
			remap[v] = -1
		}
	}
	sub := &csr{
		xadj: make([]int64, count+1),
		vwgt: make([]int32, count),
	}
	subVids := make([]int32, count)
	var edges int64
	for v := 0; v < n; v++ {
		sv := remap[v]
		if sv == -1 {
			continue
		}
		subVids[sv] = vids[v]
		sub.vwgt[sv] = g.vwgt[v]
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			if remap[g.adj[e]] != -1 {
				edges++
			}
		}
		sub.xadj[sv+1] = edges
	}
	sub.adj = make([]int32, edges)
	sub.adjw = make([]int32, edges)
	var pos int64
	for v := 0; v < n; v++ {
		if remap[v] == -1 {
			continue
		}
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			u := remap[g.adj[e]]
			if u == -1 {
				continue
			}
			sub.adj[pos] = u
			sub.adjw[pos] = g.adjw[e]
			pos++
		}
	}
	return sub, subVids
}
