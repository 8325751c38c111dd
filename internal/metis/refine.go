package metis

import "math/rand"

// refineKWay runs greedy boundary refinement: each pass visits vertices in
// random order, computes their connectivity to adjacent parts, and moves a
// vertex to the part it is most connected to when that reduces the cut
// (subject to the balance bound), or when its current part is overweight
// and the move helps balance without increasing the cut too much.
func refineKWay(g *csr, part []int32, k int, maxPart int64, rng *rand.Rand) {
	n := g.n()
	pw := make([]int64, k)
	for v := 0; v < n; v++ {
		pw[part[v]] += int64(g.vwgt[v])
	}

	conn := make([]int64, k)
	stamp := make([]int32, k)
	for i := range stamp {
		stamp[i] = -1
	}
	touched := make([]int32, 0, 8)

	order := rng.Perm(n)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for _, vi := range order {
			v := int32(vi)
			p := part[v]
			w := int64(g.vwgt[v])

			touched = touched[:0]
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				q := part[g.adj[e]]
				if stamp[q] != v {
					stamp[q] = v
					conn[q] = 0
					touched = append(touched, q)
				}
				conn[q] += int64(g.adjw[e])
			}
			var connP int64
			if stamp[p] == v {
				connP = conn[p]
			}

			// Find the best destination among adjacent parts.
			best := int32(-1)
			var bestConn int64 = -1
			for _, q := range touched {
				if q == p {
					continue
				}
				if conn[q] > bestConn || (conn[q] == bestConn && best != -1 && pw[q] < pw[best]) {
					bestConn = conn[q]
					best = q
				}
			}

			overweight := pw[p] > maxPart
			if best == -1 {
				// Interior or isolated vertex: only move to restore balance.
				if overweight {
					lightest := int32(0)
					for q := int32(1); q < int32(k); q++ {
						if pw[q] < pw[lightest] {
							lightest = q
						}
					}
					if pw[lightest]+w < pw[p] {
						part[v] = lightest
						pw[p] -= w
						pw[lightest] += w
						moved++
					}
				}
				continue
			}
			gain := bestConn - connP
			fits := pw[best]+w <= maxPart
			switch {
			case gain > 0 && fits:
				part[v] = best
				pw[p] -= w
				pw[best] += w
				moved++
			case gain == 0 && fits && pw[best]+w < pw[p]:
				part[v] = best
				pw[p] -= w
				pw[best] += w
				moved++
			case overweight && pw[best]+w < pw[p] && gain >= 0:
				part[v] = best
				pw[p] -= w
				pw[best] += w
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
