// Package txgraph implements the Transactions-as-Nodes (TaN) network of
// paper §IV-A: a directed acyclic graph in which every node is a transaction
// and an edge (u, v) exists when u spends an output of v. Because a
// transaction can only reference earlier transactions, arrival order is a
// topological order, and the graph is stored as an append-only CSR over the
// in-edges (known in full the moment a node arrives). Out-degrees are
// accumulated as later spenders arrive.
package txgraph

import (
	"errors"
	"fmt"
)

// Node identifies a transaction by its arrival position (dense, 0-based).
type Node = int32

// ErrForwardEdge reports an input referencing a not-yet-arrived transaction,
// which would break the DAG invariant.
var ErrForwardEdge = errors.New("txgraph: input references a future or self node")

// Graph is an online TaN network. The zero value is an empty graph ready for
// use. Graph is not safe for concurrent mutation.
type Graph struct {
	inOff   []int64 // inOff[u]..inOff[u+1] indexes inEdges; len = n+1
	inEdges []Node  // deduplicated input transactions, arrival order preserved
	outDeg  []int32 // number of distinct spenders seen so far
	dedupe  Deduper
}

// New returns an empty graph with capacity hints for n nodes and e edges.
func New(n, e int) *Graph {
	g := &Graph{
		inOff:   make([]int64, 1, n+1),
		inEdges: make([]Node, 0, e),
		outDeg:  make([]int32, 0, n),
	}
	return g
}

// NumNodes returns the number of transactions added.
func (g *Graph) NumNodes() int { return len(g.outDeg) }

// NumEdges returns the number of (deduplicated) edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.inEdges)) }

// AddNode appends the next transaction, whose deduplicated input set is
// inputs (they may contain duplicates; they are deduplicated here). All
// inputs must reference already-added nodes; a list with one that does not
// is refused whole. It returns the new node's id.
func (g *Graph) AddNode(inputs []Node) (Node, error) {
	id := Node(len(g.outDeg))
	start := len(g.inEdges)
	for _, v := range inputs {
		if v >= id || v < 0 {
			return 0, fmt.Errorf("node %d input %d: %w", id, v, ErrForwardEdge)
		}
	}
	g.inEdges = g.dedupe.Compact(append(g.inEdges, inputs...), start)
	for _, v := range g.inEdges[start:] {
		g.outDeg[v]++
	}
	g.inOff = append(g.inOff, int64(len(g.inEdges)))
	g.outDeg = append(g.outDeg, 0)
	return id, nil
}

// Inputs returns the deduplicated input transactions of u. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Inputs(u Node) []Node {
	return g.inEdges[g.inOff[u]:g.inOff[u+1]]
}

// InDegree returns the number of distinct input transactions of u.
func (g *Graph) InDegree(u Node) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// OutDegree returns the number of distinct transactions seen so far that
// spend an output of u.
func (g *Graph) OutDegree(u Node) int { return int(g.outDeg[u]) }

// UndirectedCSR exports the graph as an undirected CSR adjacency (each edge
// appears in both endpoints' lists), the input format of the Metis-style
// partitioner. xadj has length NumNodes()+1.
func (g *Graph) UndirectedCSR() (xadj []int64, adjncy []Node) {
	n := g.NumNodes()
	deg := make([]int64, n)
	for u := 0; u < n; u++ {
		deg[u] += int64(g.InDegree(Node(u)))
	}
	for _, v := range g.inEdges {
		deg[v]++
	}
	xadj = make([]int64, n+1)
	for u := 0; u < n; u++ {
		xadj[u+1] = xadj[u] + deg[u]
	}
	adjncy = make([]Node, xadj[n])
	next := make([]int64, n)
	copy(next, xadj[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Inputs(Node(u)) {
			adjncy[next[u]] = v
			next[u]++
			adjncy[next[v]] = Node(u)
			next[v]++
		}
	}
	return xadj, adjncy
}
