package graph

import "testing"

func benchGraph(b *testing.B, n, ef int) *CSR {
	b.Helper()
	g, err := GenerateGTGraph(n, ef, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkGenerateRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRMAT(12, 1<<16, Graph500RMAT, false, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewCSR(b *testing.B) {
	edges, err := GenerateRMAT(12, 1<<16, Graph500RMAT, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCSR(1<<12, edges, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSTopDown(b *testing.B) {
	g := benchGraph(b, 4096, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFSTopDown(g, uint32(i%g.NumVertices())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSDirectionOptimizing(b *testing.B) {
	g := benchGraph(b, 4096, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFSDirectionOptimizing(g, uint32(i%g.NumVertices()), DirectionOptConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := benchGraph(b, 4096, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PageRank(g, PageRankConfig{MaxIter: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(b, 4096, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(g)
	}
}

func BenchmarkSSSPDeltaStepping(b *testing.B) {
	g := benchGraph(b, 2048, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSSPDeltaStepping(g, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleCount(b *testing.B) {
	g := benchGraph(b, 1024, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TriangleCount(g)
	}
}
