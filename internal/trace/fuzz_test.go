package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzTrace builds seed traces for the binary-reader fuzz targets.
func fuzzTrace(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		op := Read
		if i%2 == 0 {
			op = Write
		}
		events[i] = Event{Cycle: uint64(i * 3), Op: op, Addr: uint64(0x1000 + i*64), Thread: uint8(i % 3)}
	}
	return events
}

// FuzzReadBinary drives both binary trace readers (strict and salvage) over
// arbitrary bytes: no panics, no runaway allocation, errors classified as
// ErrFormat, and salvage must return a prefix consistent with its report.
func FuzzReadBinary(f *testing.F) {
	var v1, v2 bytes.Buffer
	WriteBinaryV1(&v1, fuzzTrace(20))
	WriteBinary(&v2, fuzzTrace(20))
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()-10]) // torn trailer
	f.Add([]byte("GDSETRC1short"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("unclassified error: %v", err)
		}
		events, rep, err := ReadBinarySalvage(bytes.NewReader(data))
		if err != nil {
			return // unusable header: nothing salvageable
		}
		if rep == nil {
			t.Fatal("salvage returned nil report without error")
		}
		if uint64(len(events)) != rep.RecordsKept {
			t.Fatalf("salvage report says %d records, returned %d", rep.RecordsKept, len(events))
		}
	})
}

// FuzzReadCompressed is FuzzReadBinary for the delta-compressed format.
func FuzzReadCompressed(f *testing.F) {
	var v1, v2 bytes.Buffer
	WriteCompressedV1(&v1, fuzzTrace(30))
	WriteCompressed(&v2, fuzzTrace(30))
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v1.Bytes()[:5])
	f.Add(append(append([]byte{}, compressedMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadCompressed(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("unclassified error: %v", err)
		}
		events, rep, err := ReadCompressedSalvage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rep == nil {
			t.Fatal("salvage returned nil report without error")
		}
		if uint64(len(events)) != rep.RecordsKept {
			t.Fatalf("salvage report says %d records, returned %d", rep.RecordsKept, len(events))
		}
	})
}

// FuzzParseNVMainLine checks that the NVMain parser agrees with its
// string-based oracle on every line, and that any line it accepts
// round-trips through the writer format: parse → render → reparse must
// yield the identical event. Seeds run on every plain `go test`.
func FuzzParseNVMainLine(f *testing.F) {
	f.Add("100 R 0x400 0")
	f.Add("0 W 0x0 3")
	f.Add("18446744073709551615 R 0xFFFFFFFFFFFFFFFF 255")
	f.Add("  42 W 0xDEADBEEF 1  ")
	f.Add("# comment")
	f.Add("")
	f.Add("12 X 0x40 0")
	f.Add("12 R")
	f.Add("12 R 0xZZ 0")
	f.Add("1\u00a0R 0x1\u3000 2\u0085")
	f.Add("1 R 0x1 \xe3\xc2\xa0")
	f.Fuzz(func(t *testing.T, line string) {
		checkNVMainAgainstOracle(t, line)
		e, ok, err := ParseNVMainLine(line)
		if err != nil || !ok {
			return // rejected or skipped input: nothing to round-trip
		}
		e2, ok2, err2 := ParseNVMainLine(e.String())
		if err2 != nil || !ok2 {
			t.Fatalf("rendered line %q rejected: ok=%v err=%v", e.String(), ok2, err2)
		}
		if e2 != e {
			t.Fatalf("round-trip mismatch: %+v -> %q -> %+v", e, e.String(), e2)
		}
	})
}

// FuzzParseGem5Line checks the gem5 parser against its string-based
// oracle, and against the gem5 writer at ticksPerCycle=1 (so no tick
// truncation): any accepted line must survive parse → WriteGem5 → reparse
// unchanged.
func FuzzParseGem5Line(f *testing.F) {
	f.Add("500: system.cpu.dcache: ReadReq addr=0x4000 size=8 thread=2")
	f.Add("1000: system.cpu.dcache: WriteReq addr=0xdeadbeef size=8 thread=0")
	f.Add("1500: system.mem_ctrl: ReadReq addr=0x80 size=64")
	f.Add("2000: system.cpu.icache: ReadReq addr=0x1000 size=8") // filtered
	f.Add("2500: system.cpu.dcache: CleanEvict addr=0x40 size=8")
	f.Add("no colon here")
	f.Add("abc: system.cpu.dcache: ReadReq addr=0x40")
	f.Add("300: system.cpu.dcache: ReadReq addr=0xqq size=8")
	f.Add("")
	f.Add("\u00a0500\u3000: system.cpu.dcache: ReadReq addr=0x0040 thread=003\u0085")
	f.Add("1: dcache ReadReq addr=0x1 thread=256 \xff")
	f.Fuzz(func(t *testing.T, line string) {
		checkGem5AgainstOracle(t, line, 1)
		checkGem5AgainstOracle(t, line, 500)
		e, ok, err := ParseGem5Line(line, 1)
		if err != nil || !ok {
			return
		}
		var buf bytes.Buffer
		if werr := WriteGem5(&buf, []Event{e}, 1); werr != nil {
			t.Fatalf("writer rejected parsed event %+v: %v", e, werr)
		}
		rendered := strings.TrimSuffix(buf.String(), "\n")
		e2, ok2, err2 := ParseGem5Line(rendered, 1)
		if err2 != nil || !ok2 {
			t.Fatalf("rendered line %q rejected: ok=%v err=%v", rendered, ok2, err2)
		}
		if e2 != e {
			t.Fatalf("round-trip mismatch: %+v -> %q -> %+v", e, rendered, e2)
		}
	})
}
