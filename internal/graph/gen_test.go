package graph

import (
	"testing"
	"testing/quick"
)

func TestGenerateRMATBasics(t *testing.T) {
	edges, err := GenerateRMAT(8, 1000, Graph500RMAT, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1000 {
		t.Fatalf("edges = %d", len(edges))
	}
	n := uint32(1 << 8)
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge %v out of range", e)
		}
		if e.Weight != 0 {
			t.Fatal("unweighted generator produced weights")
		}
	}
}

func TestGenerateRMATWeighted(t *testing.T) {
	edges, err := GenerateRMAT(4, 50, GTGraphDefault, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.Weight <= 0 || e.Weight > 1 {
			t.Fatalf("weight %v out of (0,1]", e.Weight)
		}
	}
}

func TestGenerateRMATDeterministic(t *testing.T) {
	a, _ := GenerateRMAT(6, 200, Graph500RMAT, false, 7)
	b, _ := GenerateRMAT(6, 200, Graph500RMAT, false, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce edges")
		}
	}
	c, _ := GenerateRMAT(6, 200, Graph500RMAT, false, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateRMATSkewed(t *testing.T) {
	// R-MAT with Graph500 parameters concentrates edges on low IDs: the
	// bottom quarter of the ID space should hold well over its uniform share
	// of endpoints.
	edges, err := GenerateRMAT(10, 20000, Graph500RMAT, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(1 << 10)
	var lowQuarter int
	for _, e := range edges {
		if e.Src < n/4 {
			lowQuarter++
		}
		if e.Dst < n/4 {
			lowQuarter++
		}
	}
	frac := float64(lowQuarter) / float64(2*len(edges))
	if frac < 0.4 {
		t.Fatalf("low-ID endpoint fraction = %v, expected skew > 0.4", frac)
	}
}

func TestGenerateRMATErrors(t *testing.T) {
	if _, err := GenerateRMAT(0, 10, Graph500RMAT, false, 1); err == nil {
		t.Fatal("expected scale error")
	}
	if _, err := GenerateRMAT(4, 0, Graph500RMAT, false, 1); err == nil {
		t.Fatal("expected edge-count error")
	}
	if _, err := GenerateRMAT(4, 10, RMATParams{A: 0.9, B: 0.9, C: 0, D: 0}, false, 1); err == nil {
		t.Fatal("expected probability error")
	}
}

func TestGenerateGTGraphPaperScale(t *testing.T) {
	// The paper's workload: 1,024 vertices, edge factor 16.
	g, err := GenerateGTGraph(1024, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Undirected storage doubles 1024*16 edges.
	if g.NumEdges() != 2*1024*16 {
		t.Fatalf("m = %d, want %d", g.NumEdges(), 2*1024*16)
	}
}

func TestGenerateGTGraphNonPowerOfTwo(t *testing.T) {
	g, err := GenerateGTGraph(1000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}

func TestGenerateGTGraphErrors(t *testing.T) {
	if _, err := GenerateGTGraph(1, 16, 1); err == nil {
		t.Fatal("expected vertex-count error")
	}
	if _, err := GenerateGTGraph(16, 0, 1); err == nil {
		t.Fatal("expected edge-factor error")
	}
}

func TestGenerateErdosRenyi(t *testing.T) {
	edges, err := GenerateErdosRenyi(100, 500, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 500 {
		t.Fatalf("edges = %d", len(edges))
	}
	for _, e := range edges {
		if e.Src >= 100 || e.Dst >= 100 {
			t.Fatalf("edge %v out of range", e)
		}
	}
	if _, err := GenerateErdosRenyi(1, 5, false, 1); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := GenerateErdosRenyi(5, 0, false, 1); err == nil {
		t.Fatal("expected error for zero edges")
	}
}

func TestGenerateGraph500(t *testing.T) {
	g, err := GenerateGraph500(8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 2*16*256 {
		t.Fatalf("m = %d", g.NumEdges())
	}
}

// Property: GTGraph output is always a valid CSR whose edge count matches
// 2*n*edgeFactor, for any small n >= 2.
func TestPropGTGraphEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%63+63)%63 // [2,127]
		g, err := GenerateGTGraph(n, 4, seed)
		if err != nil {
			return false
		}
		return g.NumVertices() == n && g.NumEdges() == int64(2*4*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
