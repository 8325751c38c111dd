package txgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// distinctByScan is the first-occurrence scan Deduper replaced in its four
// callers, kept as the oracle.
func distinctByScan(ins []Node) []Node {
	var kept []Node
	for _, v := range ins {
		if !slices.Contains(kept, v) {
			kept = append(kept, v)
		}
	}
	return kept
}

// randomInputs draws n inputs below limit from a pool narrow enough that
// repeats are common at every width.
func randomInputs(rng *rand.Rand, n int, limit Node) []Node {
	pool := Node(1 + rng.Intn(2*n+1))
	ins := make([]Node, n)
	for i := range ins {
		ins[i] = (Node(rng.Intn(int(pool))) * 7919) % limit
	}
	return ins
}

func TestDeduperMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var d Deduper
	prefix := []Node{-7, 1 << 30} // never read, never moved
	for round := 0; round < 4000; round++ {
		n := rng.Intn(401)
		if round%5 == 0 {
			n = rng.Intn(2*scanMax + 2) // both sides of the scan/table switch
		}
		ins := randomInputs(rng, n, 1<<20)
		want := distinctByScan(ins)
		got := d.Compact(append(slices.Clone(prefix), ins...), len(prefix))
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("round %d: Compact(%v) = %v, want %v after the prefix", round, ins, got, want)
		}
	}
	// The table is sized by the widest list, not by how many were seen.
	if len(d.slots) != 1024 {
		t.Fatalf("scratch table has %d slots after lists of at most 400 inputs, want 1024", len(d.slots))
	}
}

// A stamp that wraps must not let slots written 2^32 lists ago read as
// belonging to the current one.
func TestDeduperStampWrap(t *testing.T) {
	var d Deduper
	ins := make([]Node, 40)
	for i := range ins {
		ins[i] = Node(i % 20)
	}
	d.Compact(slices.Clone(ins), 0)
	d.stamp = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		for j := range ins {
			ins[j] = Node(100*i + j%20)
		}
		if got := d.Compact(slices.Clone(ins), 0); !slices.Equal(got, distinctByScan(ins)) {
			t.Fatalf("list %d across the wrap (stamp %d): %v", i, d.stamp, got)
		}
	}
}

func TestDeduperZeroAllocsOnceWarm(t *testing.T) {
	var d Deduper
	rng := rand.New(rand.NewSource(1))
	wide, narrow := randomInputs(rng, 300, 1<<20), randomInputs(rng, 5, 1<<20)
	buf := make([]Node, 0, 300)
	d.Compact(append(buf, wide...), 0)
	if allocs := testing.AllocsPerRun(100, func() {
		d.Compact(append(buf, wide...), 0)
		d.Compact(append(buf, narrow...), 0)
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per warm Compact pair, want 0", allocs)
	}
}

// AddNode against the scan: same edges, same degrees, and a list holding a
// negative, self or forward input is refused at its first such input and
// leaves the graph as it was.
func TestAddNodeMatchesScanAndRefusesAtFirstBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(0, 0)
	var outDeg []int32
	for u := Node(0); u < 600; u++ {
		n := 0
		if u > 0 {
			n = rng.Intn(401)
		}
		ins := randomInputs(rng, n, max(u, 1))
		if u > 0 && rng.Intn(3) == 0 {
			// Poison the list: the first bad input must be the one named.
			bad := []Node{-1, u, u + 5}
			at := rng.Intn(n + 1)
			poisoned := slices.Insert(slices.Clone(ins), at, bad[rng.Intn(3)])
			poisoned = append(poisoned, bad[rng.Intn(3)])
			_, err := g.AddNode(poisoned)
			want := fmt.Sprintf("node %d input %d: %v", u, poisoned[at], ErrForwardEdge)
			if !errors.Is(err, ErrForwardEdge) || err.Error() != want {
				t.Fatalf("node %d, bad input at %d: error %v, want %q", u, at, err, want)
			}
			if g.NumNodes() != int(u) {
				t.Fatalf("refused node %d was added", u)
			}
		}
		id, err := g.AddNode(ins)
		if err != nil || id != u {
			t.Fatalf("AddNode(%v) = %d, %v", ins, id, err)
		}
		want := distinctByScan(ins)
		if !slices.Equal(g.Inputs(u), want) {
			t.Fatalf("node %d: inputs %v, want %v", u, g.Inputs(u), want)
		}
		outDeg = append(outDeg, 0)
		for _, v := range want {
			outDeg[v]++
		}
	}
	for v, want := range outDeg {
		if got := g.OutDegree(Node(v)); got != int(want) {
			t.Fatalf("out-degree of %d is %d, want %d: a refused list left spenders behind", v, got, want)
		}
	}
}
