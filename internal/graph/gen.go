package graph

import (
	"fmt"
	"math/rand"
)

// RMATParams configures the recursive-matrix generator (the model behind
// GTGraph's rmat mode and the Graph500 Kronecker generator). A, B, C, D must
// be non-negative and sum to ~1.
type RMATParams struct {
	A, B, C, D float64
}

// Graph500RMAT are the Kronecker initiator parameters specified by the
// Graph500 benchmark (A=0.57, B=0.19, C=0.19, D=0.05).
var Graph500RMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// GTGraphDefault mirrors GTGraph's default R-MAT parameters
// (a=0.45, b=0.15, c=0.15, d=0.25).
var GTGraphDefault = RMATParams{A: 0.45, B: 0.15, C: 0.15, D: 0.25}

// GenerateRMAT produces numEdges directed edges over 2^scale vertices using
// the R-MAT recursive quadrant-selection process. Weights are uniform in
// (0, 1] when weighted is true. The generator is deterministic per seed.
func GenerateRMAT(scale int, numEdges int64, p RMATParams, weighted bool, seed int64) ([]Edge, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: rmat scale %d out of range [1,30]", scale)
	}
	if numEdges <= 0 {
		return nil, fmt.Errorf("graph: non-positive edge count %d", numEdges)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 || sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("graph: rmat probabilities %+v do not sum to 1", p)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, numEdges)
	n := uint32(1) << uint(scale)
	for int64(len(edges)) < numEdges {
		var src, dst uint32
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			// Add per-level noise as in the Graph500 reference code to avoid
			// exact self-similarity artifacts.
			switch {
			case r < p.A:
				// top-left: no bits set
			case r < p.A+p.B:
				dst |= 1 << uint(bit)
			case r < p.A+p.B+p.C:
				src |= 1 << uint(bit)
			default:
				src |= 1 << uint(bit)
				dst |= 1 << uint(bit)
			}
		}
		e := Edge{Src: src % n, Dst: dst % n}
		if weighted {
			e.Weight = 1 - rng.Float64() // uniform in (0,1]
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// GenerateGTGraph reproduces the paper's workload graph: an R-MAT graph with
// the given vertex count (rounded up to a power of two for the recursion,
// then folded back) and edgeFactor edges per vertex, as generated for the
// paper with GTGraph (1,024 vertices, edge factor 16).
func GenerateGTGraph(numVertices int, edgeFactor int, seed int64) (*CSR, error) {
	if numVertices < 2 {
		return nil, fmt.Errorf("graph: need at least 2 vertices, got %d", numVertices)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d < 1", edgeFactor)
	}
	scale := 0
	for 1<<uint(scale) < numVertices {
		scale++
	}
	edges, err := GenerateRMAT(scale, int64(numVertices)*int64(edgeFactor), GTGraphDefault, false, seed)
	if err != nil {
		return nil, err
	}
	for i := range edges {
		edges[i].Src %= uint32(numVertices)
		edges[i].Dst %= uint32(numVertices)
	}
	return NewCSR(numVertices, edges, true)
}

// GenerateErdosRenyi samples numEdges uniform random edges over n vertices
// (G(n, m) model), one of GTGraph's generator modes.
func GenerateErdosRenyi(n int, numEdges int64, weighted bool, seed int64) ([]Edge, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: need at least 2 vertices, got %d", n)
	}
	if numEdges <= 0 {
		return nil, fmt.Errorf("graph: non-positive edge count %d", numEdges)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, numEdges)
	for i := range edges {
		edges[i] = Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		if weighted {
			edges[i].Weight = 1 - rng.Float64()
		}
	}
	return edges, nil
}

// GenerateGraph500 builds an undirected Kronecker graph per the Graph500
// specification: 2^scale vertices, edgefactor*2^scale edges, initiator
// (0.57, 0.19, 0.19, 0.05).
func GenerateGraph500(scale, edgeFactor int, seed int64) (*CSR, error) {
	edges, err := GenerateRMAT(scale, int64(edgeFactor)<<uint(scale), Graph500RMAT, false, seed)
	if err != nil {
		return nil, err
	}
	return NewCSR(1<<uint(scale), edges, true)
}
