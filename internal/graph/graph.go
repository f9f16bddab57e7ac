// Package graph implements the graph-analytics substrate of the paper's
// workload: synthetic generators in the GTGraph family (R-MAT, Erdős–Rényi,
// Graph500 Kronecker), a compressed-sparse-row representation, the Graph500
// BFS kernel (top-down, bottom-up and direction-optimizing variants, with
// parent-tree validation), connected components for graph statistics,
// Δ-stepping SSSP with a Dijkstra reference, the oracle for the traced SSSP
// workload, and the PageRank and triangle-counting analytics kernels.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is a directed edge with an optional weight.
type Edge struct {
	Src, Dst uint32
	Weight   float64
}

// CSR is a compressed-sparse-row graph. For undirected graphs every edge is
// stored in both directions. Vertex IDs are dense in [0, NumVertices).
type CSR struct {
	offsets []int64   // len = n+1
	targets []uint32  // len = m
	weights []float64 // len = m when weighted, else nil
	n       int
}

// ErrVertexRange indicates an out-of-range vertex ID.
var ErrVertexRange = errors.New("graph: vertex out of range")

// NewCSR builds a CSR from an edge list over n vertices. When undirected is
// true each input edge is inserted in both directions. Self-loops are kept;
// duplicate edges are kept (multigraph semantics, matching GTGraph output).
func NewCSR(n int, edges []Edge, undirected bool) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: non-positive vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("%w: edge %d->%d with n=%d", ErrVertexRange, e.Src, e.Dst, n)
		}
	}
	weighted := false
	for _, e := range edges {
		if e.Weight != 0 {
			weighted = true
			break
		}
	}
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e.Src]++
		if undirected {
			deg[e.Dst]++
		}
	}
	g := &CSR{n: n, offsets: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	m := g.offsets[n]
	g.targets = make([]uint32, m)
	if weighted {
		g.weights = make([]float64, m)
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	insert := func(s, d uint32, w float64) {
		i := cursor[s]
		cursor[s]++
		g.targets[i] = d
		if weighted {
			g.weights[i] = w
		}
	}
	for _, e := range edges {
		insert(e.Src, e.Dst, e.Weight)
		if undirected {
			insert(e.Dst, e.Src, e.Weight)
		}
	}
	// Sort adjacency lists for deterministic traversal order and cache-
	// friendly scans.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if weighted {
			sortAdjWeighted(g.targets[lo:hi], g.weights[lo:hi])
		} else {
			tg := g.targets[lo:hi]
			sort.Slice(tg, func(a, b int) bool { return tg[a] < tg[b] })
		}
	}
	return g, nil
}

func sortAdjWeighted(t []uint32, w []float64) {
	idx := make([]int, len(t))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t[idx[a]] < t[idx[b]] })
	tc := append([]uint32(nil), t...)
	wc := append([]float64(nil), w...)
	for i, j := range idx {
		t[i] = tc[j]
		w[i] = wc[j]
	}
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed edges (2× the undirected
// edge count for undirected graphs).
func (g *CSR) NumEdges() int64 { return g.offsets[g.n] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v uint32) int64 {
	return g.offsets[v+1] - g.offsets[v]
}

// Neighbors returns the adjacency slice of v (aliased, do not modify).
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v), or nil
// for unweighted graphs.
func (g *CSR) NeighborWeights(v uint32) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// Weighted reports whether edge weights are stored.
func (g *CSR) Weighted() bool { return g.weights != nil }

// Offsets exposes the CSR offset array (len n+1). The system simulator uses
// it to lay the graph out in simulated memory.
func (g *CSR) Offsets() []int64 { return g.offsets }

// Targets exposes the CSR target array. The system simulator uses it to lay
// the graph out in simulated memory.
func (g *CSR) Targets() []uint32 { return g.targets }

// MaxDegree returns the largest out-degree and one vertex attaining it.
func (g *CSR) MaxDegree() (uint32, int64) {
	var best uint32
	var bd int64 = -1
	for v := 0; v < g.n; v++ {
		if d := g.Degree(uint32(v)); d > bd {
			bd = d
			best = uint32(v)
		}
	}
	return best, bd
}

// HasEdge reports whether the directed edge u->v is stored, via binary
// search over the sorted adjacency list.
func (g *CSR) HasEdge(u, v uint32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Transpose returns the reverse graph (every stored edge u→v becomes v→u),
// used to run pull-style directed analytics. Weights are carried along.
// The error is non-nil only if the receiver's invariants are broken (a
// vertex id out of range), which a CSR built through NewCSR cannot exhibit.
func (g *CSR) Transpose() (*CSR, error) {
	edges := make([]Edge, 0, g.NumEdges())
	for v := uint32(0); int(v) < g.n; v++ {
		wts := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			e := Edge{Src: u, Dst: v}
			if wts != nil {
				e.Weight = wts[i]
			}
			edges = append(edges, e)
		}
	}
	t, err := NewCSR(g.n, edges, false)
	if err != nil {
		return nil, fmt.Errorf("graph: transpose: %w", err)
	}
	return t, nil
}

// InDegrees returns the in-degree of every vertex (over stored directed
// edges).
func (g *CSR) InDegrees() []int64 {
	in := make([]int64, g.n)
	for _, t := range g.targets {
		in[t]++
	}
	return in
}
