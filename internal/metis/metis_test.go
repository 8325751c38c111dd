package metis

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// edgeCut returns the number of edges whose endpoints are in different
// parts (each undirected edge counted once).
func edgeCut(xadj []int64, adjncy []int32, part []int32) int64 {
	var cut int64
	for u := 0; u < len(xadj)-1; u++ {
		for _, v := range adjncy[xadj[u]:xadj[u+1]] {
			if part[u] != part[v] {
				cut++
			}
		}
	}
	return cut / 2
}

// buildCSR converts an edge list into symmetric CSR form.
func buildCSR(n int, edges [][2]int32) ([]int64, []int32) {
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	xadj := make([]int64, n+1)
	for i := 0; i < n; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[n])
	next := make([]int64, n)
	copy(next, xadj[:n])
	for _, e := range edges {
		adj[next[e[0]]] = e[1]
		next[e[0]]++
		adj[next[e[1]]] = e[0]
		next[e[1]]++
	}
	return xadj, adj
}

// ringEdges returns a cycle over n vertices.
func ringEdges(n int) [][2]int32 {
	edges := make([][2]int32, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % n)})
	}
	return edges
}

// clustersEdges builds c dense clusters of size s with single bridge edges
// between consecutive clusters — the canonical easy partitioning instance.
func clustersEdges(c, s int, rng *rand.Rand) (int, [][2]int32) {
	n := c * s
	var edges [][2]int32
	for ci := 0; ci < c; ci++ {
		base := ci * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, [2]int32{int32(base + i), int32(base + j)})
				}
			}
		}
		if ci > 0 {
			edges = append(edges, [2]int32{int32(base - 1), int32(base)})
		}
	}
	return n, edges
}

func validatePartition(t *testing.T, part []int32, n, k int) {
	t.Helper()
	if len(part) != n {
		t.Fatalf("partition covers %d of %d vertices", len(part), n)
	}
	for v, p := range part {
		if p < 0 || int(p) >= k {
			t.Fatalf("vertex %d in invalid part %d", v, p)
		}
	}
}

func TestPartitionInputValidation(t *testing.T) {
	xadj, adj := buildCSR(4, ringEdges(4))
	if _, err := PartitionKWay(xadj, adj, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionKWay(xadj[:3], adj, 2, nil); err == nil {
		t.Fatal("truncated xadj accepted")
	}
	if _, err := PartitionKWay([]int64{0, 1}, []int32{5}, 2, nil); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
}

func TestPartitionTrivialCases(t *testing.T) {
	xadj, adj := buildCSR(6, ringEdges(6))
	part, err := PartitionKWay(xadj, adj, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must map everything to part 0")
		}
	}
	// k >= n degenerates to one vertex per part.
	part, err = PartitionKWay(xadj, adj, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, p := range part {
		if seen[p] {
			t.Fatal("k>=n produced duplicate assignment")
		}
		seen[p] = true
	}
	// Empty graph.
	part, err = PartitionKWay([]int64{0}, nil, 4, nil)
	if err != nil || len(part) != 0 {
		t.Fatalf("empty graph: %v %v", part, err)
	}
}

func TestPartitionClustersFindsNaturalCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, edges := clustersEdges(4, 40, rng)
	xadj, adj := buildCSR(n, edges)
	part, err := PartitionKWay(xadj, adj, 4, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, part, n, 4)
	cut := edgeCut(xadj, adj, part)
	// The natural cut is 3 bridge edges; allow some slack but demand far
	// below random (~75% of edges).
	if cut > int64(len(edges))/10 {
		t.Fatalf("cut = %d of %d edges; partitioner missed obvious clusters", cut, len(edges))
	}
	if imb := Imbalance(part, 4); imb > 1.15 {
		t.Fatalf("imbalance = %.3f", imb)
	}
}

func TestPartitionRingBalanced(t *testing.T) {
	xadj, adj := buildCSR(1000, ringEdges(1000))
	for _, k := range []int{2, 4, 8} {
		part, err := PartitionKWay(xadj, adj, k, &Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		validatePartition(t, part, 1000, k)
		cut := edgeCut(xadj, adj, part)
		// A ring cut into k arcs needs exactly k cut edges; allow 4x.
		if cut > int64(4*k) {
			t.Fatalf("k=%d ring cut = %d, want <= %d", k, cut, 4*k)
		}
		if imb := Imbalance(part, k); imb > 1.25 {
			t.Fatalf("k=%d imbalance = %.3f", k, imb)
		}
	}
}

func TestPartitionBeatsRandomOnRandomGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2000
	var edges [][2]int32
	// Locality-heavy random graph (similar flavor to a TaN network).
	for i := 1; i < n; i++ {
		for d := 0; d < 2; d++ {
			back := rng.Intn(20) + 1
			j := i - back
			if j < 0 {
				j = 0
			}
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	xadj, adj := buildCSR(n, edges)
	part, err := PartitionKWay(xadj, adj, 8, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, part, n, 8)
	cut := edgeCut(xadj, adj, part)

	randPart := make([]int32, n)
	for i := range randPart {
		randPart[i] = int32(rng.Intn(8))
	}
	randCut := edgeCut(xadj, adj, randPart)
	if cut*2 > randCut {
		t.Fatalf("metis cut %d not well below random cut %d", cut, randCut)
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, edges := clustersEdges(3, 30, rng)
	xadj, adj := buildCSR(n, edges)
	a, err := PartitionKWay(xadj, adj, 3, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionKWay(xadj, adj, 3, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different partitions")
		}
	}
}

func TestEdgeCutAndWeights(t *testing.T) {
	xadj, adj := buildCSR(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	part := []int32{0, 0, 1, 1}
	if cut := edgeCut(xadj, adj, part); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	w := PartWeights(part, 2)
	if w[0] != 2 || w[1] != 2 {
		t.Fatalf("weights = %v", w)
	}
	if imb := Imbalance(part, 2); imb != 1 {
		t.Fatalf("imbalance = %v", imb)
	}
	if imb := Imbalance([]int32{0, 0, 0, 1}, 2); imb != 1.5 {
		t.Fatalf("imbalance = %v", imb)
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, edges := clustersEdges(2, 50, rng)
	xadj, adj := buildCSR(n, edges)
	g := &csr{xadj: xadj, adj: adj, adjw: ones(len(adj)), vwgt: ones(n)}
	coarse, cmap := coarsenOnce(g, rng)
	if coarse.n() >= n {
		t.Fatalf("coarsening did not shrink: %d -> %d", n, coarse.n())
	}
	if coarse.totalVWgt() != g.totalVWgt() {
		t.Fatalf("vertex weight changed: %d -> %d", g.totalVWgt(), coarse.totalVWgt())
	}
	// Total edge weight (excluding collapsed internal edges) must equal the
	// weight of fine edges whose endpoints map to different coarse vertices.
	var wantW int64
	for v := 0; v < n; v++ {
		for e := xadj[v]; e < xadj[v+1]; e++ {
			if cmap[v] != cmap[adj[e]] {
				wantW += int64(g.adjw[e])
			}
		}
	}
	var gotW int64
	for _, w := range coarse.adjw {
		gotW += int64(w)
	}
	if gotW != wantW {
		t.Fatalf("coarse edge weight %d, want %d", gotW, wantW)
	}
	// Coarse adjacency must be symmetric.
	type pair struct{ a, b int32 }
	wmap := map[pair]int32{}
	for v := int32(0); v < int32(coarse.n()); v++ {
		for e := coarse.xadj[v]; e < coarse.xadj[v+1]; e++ {
			wmap[pair{v, coarse.adj[e]}] = coarse.adjw[e]
		}
	}
	for p, w := range wmap {
		if wmap[pair{p.b, p.a}] != w {
			t.Fatalf("asymmetric coarse edge %v", p)
		}
	}
}

// Property: for random graphs and k, the partition is complete, in-range,
// and within a loose balance envelope.
func TestPropertyPartitionValid(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 20
		k := int(kRaw)%6 + 2
		var edges [][2]int32
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			edges = append(edges, [2]int32{int32(i), int32(j)})
			if rng.Intn(2) == 0 {
				edges = append(edges, [2]int32{int32(i), int32(rng.Intn(i))})
			}
		}
		xadj, adj := buildCSR(n, edges)
		part, err := PartitionKWay(xadj, adj, k, &Options{Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		if n >= 4*k {
			if Imbalance(part, k) > 1.7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
