package trace

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func benchEvents(b *testing.B, n int) []Event {
	b.Helper()
	return randomEvents(n, 42)
}

func BenchmarkWriteNVMain(b *testing.B) {
	events := benchEvents(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNVMain(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadNVMain(b *testing.B) {
	events := benchEvents(b, 50000)
	var buf bytes.Buffer
	if err := WriteNVMain(&buf, events); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadNVMain(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteGem5(b *testing.B) {
	events := benchEvents(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteGem5(io.Discard, events, 500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadGem5(b *testing.B) {
	events := benchEvents(b, 50000)
	var buf bytes.Buffer
	if err := WriteGem5(&buf, events, 500); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGem5(bytes.NewReader(data), 500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	events := benchEvents(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	events := benchEvents(b, 50000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	for _, k := range []int{2, 8, 16, 32} {
		traces := make([][]Event, k)
		for i := range traces {
			traces[i] = randomEvents(20000/k, int64(i+1))
		}
		b.Run(fmt.Sprintf("heap/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Merge(1<<20, traces...)
			}
		})
		b.Run(fmt.Sprintf("linear/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mergeLinearReference(1<<20, traces...)
			}
		})
	}
}

// BenchmarkConvertStream measures the streaming converter end to end; unlike
// ConvertParallel it never holds the whole input.
func BenchmarkConvertStream(b *testing.B) {
	events := benchEvents(b, 30000)
	var gem5 bytes.Buffer
	if err := WriteGem5(&gem5, events, 500); err != nil {
		b.Fatal(err)
	}
	input := gem5.Bytes()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvertStream(bytes.NewReader(input), io.Discard, 500, 4, 64*1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvertWorkerScaling(b *testing.B) {
	events := benchEvents(b, 30000)
	var gem5 bytes.Buffer
	if err := WriteGem5(&gem5, events, 500); err != nil {
		b.Fatal(err)
	}
	input := gem5.Bytes()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+workers))+"w", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, err := ConvertParallel(input, io.Discard, 500, workers, 64*1024); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
