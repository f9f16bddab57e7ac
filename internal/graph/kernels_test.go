package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageRankSumsToOne(t *testing.T) {
	g, err := GenerateGTGraph(256, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rank, iters, err := PageRank(g, PageRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("iters = %d", iters)
	}
	var sum float64
	for _, r := range rank {
		if r < 0 {
			t.Fatalf("negative rank %v", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestPageRankStarCenterDominates(t *testing.T) {
	// Star: center 0 connected to 1..9; center should have highest rank.
	var edges []Edge
	for i := 1; i < 10; i++ {
		edges = append(edges, Edge{Src: 0, Dst: uint32(i)})
	}
	g, err := NewCSR(10, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := PageRank(g, PageRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if rank[0] <= rank[i] {
			t.Fatalf("center rank %v <= leaf rank %v", rank[0], rank[i])
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Directed edge 0->1; vertex 1 is dangling. Ranks must still sum to 1.
	g, err := NewCSR(2, []Edge{{Src: 0, Dst: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := PageRank(g, PageRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rank[0]+rank[1]-1) > 1e-9 {
		t.Fatalf("rank sum = %v", rank[0]+rank[1])
	}
	if rank[1] <= rank[0] {
		t.Fatalf("sink should accumulate rank: %v", rank)
	}
}

func TestPageRankBadDamping(t *testing.T) {
	g := pathGraph(t, 3)
	if _, _, err := PageRank(g, PageRankConfig{Damping: 1.5}); err == nil {
		t.Fatal("expected damping error")
	}
}

func TestConnectedComponentsTwoIslands(t *testing.T) {
	g, err := NewCSR(6, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, true)
	if err != nil {
		t.Fatal(err)
	}
	comp := ConnectedComponents(g)
	if NumComponents(comp) != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components = %d, want 3", NumComponents(comp))
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("first island split: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("labels wrong: %v", comp)
	}
}

func TestConnectedComponentsMatchesBFSReachability(t *testing.T) {
	g, err := GenerateGTGraph(200, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	comp := ConnectedComponents(g)
	res, err := BFSTopDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		sameComp := comp[v] == comp[0]
		reached := res.Parent[v] != NoParent
		if sameComp != reached {
			t.Fatalf("vertex %d: comp match %v but BFS reach %v", v, sameComp, reached)
		}
	}
}

func TestSSSPUnweightedMatchesBFSLevels(t *testing.T) {
	g, err := GenerateGTGraph(128, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SSSPDeltaStepping(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFSTopDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if res.Level[v] == -1 {
			if !math.IsInf(dist[v], 1) {
				t.Fatalf("vertex %d unreachable by BFS but dist %v", v, dist[v])
			}
			continue
		}
		if dist[v] != float64(res.Level[v]) {
			t.Fatalf("vertex %d: dist %v vs level %d", v, dist[v], res.Level[v])
		}
	}
}

func TestSSSPDeltaMatchesDijkstraWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	n := 80
	for i := 0; i < 400; i++ {
		edges = append(edges, Edge{
			Src:    uint32(rng.Intn(n)),
			Dst:    uint32(rng.Intn(n)),
			Weight: rng.Float64() + 0.01,
		})
	}
	g, err := NewCSR(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{0, 0.05, 0.5, 10} {
		ds, err := SSSPDeltaStepping(g, 0, delta)
		if err != nil {
			t.Fatal(err)
		}
		dj, err := SSSPDijkstra(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ds {
			if math.IsInf(ds[v], 1) != math.IsInf(dj[v], 1) {
				t.Fatalf("delta=%v vertex %d reachability differs", delta, v)
			}
			if !math.IsInf(ds[v], 1) && math.Abs(ds[v]-dj[v]) > 1e-9 {
				t.Fatalf("delta=%v vertex %d: %v vs %v", delta, v, ds[v], dj[v])
			}
		}
	}
}

func TestSSSPErrors(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := SSSPDeltaStepping(g, 9, 0); err == nil {
		t.Fatal("expected root error")
	}
	if _, err := SSSPDijkstra(g, 9); err == nil {
		t.Fatal("expected root error")
	}
	bad, err := NewCSR(2, []Edge{{Src: 0, Dst: 1, Weight: -1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SSSPDeltaStepping(bad, 0, 1); err == nil {
		t.Fatal("expected negative-weight error")
	}
	if _, err := SSSPDijkstra(bad, 0); err == nil {
		t.Fatal("expected negative-weight error")
	}
}

func TestTriangleCountTriangle(t *testing.T) {
	g, err := NewCSR(3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(g); got != 1 {
		t.Fatalf("TriangleCount = %d", got)
	}
}

func TestTriangleCountK4(t *testing.T) {
	var edges []Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{Src: uint32(i), Dst: uint32(j)})
		}
	}
	g, err := NewCSR(4, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(g); got != 4 {
		t.Fatalf("K4 TriangleCount = %d, want 4", got)
	}
}

func TestTriangleCountPathHasNone(t *testing.T) {
	g := pathGraph(t, 10)
	if got := TriangleCount(g); got != 0 {
		t.Fatalf("path TriangleCount = %d", got)
	}
}

func TestTriangleCountIgnoresSelfLoopsAndDuplicates(t *testing.T) {
	g, err := NewCSR(3, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, // duplicate
		{Src: 1, Dst: 2}, {Src: 0, Dst: 2},
		{Src: 2, Dst: 2}, // self loop
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(g); got != 1 {
		t.Fatalf("TriangleCount = %d, want 1", got)
	}
}

// gridGraph builds the undirected side×side grid graph.
func gridGraph(side int) (*CSR, error) {
	var edges []Edge
	at := func(r, c int) uint32 { return uint32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, Edge{Src: at(r, c), Dst: at(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, Edge{Src: at(r, c), Dst: at(r+1, c)})
			}
		}
	}
	return NewCSR(side*side, edges, true)
}

// Property: a grid graph has no triangles and exactly 1 component, and the
// SSSP distance from a corner equals the Manhattan distance.
func TestPropGridInvariants(t *testing.T) {
	f := func(seed int64) bool {
		side := 2 + int((seed%5+5))%5 // [2,6]
		g, err := gridGraph(side)
		if err != nil {
			return false
		}
		if TriangleCount(g) != 0 {
			return false
		}
		if NumComponents(ConnectedComponents(g)) != 1 {
			return false
		}
		dist, err := SSSPDeltaStepping(g, 0, 0)
		if err != nil {
			return false
		}
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if dist[r*side+c] != float64(r+c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
