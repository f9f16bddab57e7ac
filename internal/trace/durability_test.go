package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"graphdse/internal/artifact"
)

func testEvents(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		op := Read
		if i%3 == 0 {
			op = Write
		}
		events[i] = Event{
			Cycle:  uint64(i * 7),
			Op:     op,
			Addr:   0x4000 + uint64((i*64)%8192),
			Thread: uint8(i % 4),
		}
	}
	return events
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- binary format ---

// writeBinaryV1 encodes events in the legacy unchecksummed v1 format, which
// nothing produces any more but ReadBinary must still accept.
func writeBinaryV1(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var rec [binaryRecordSize]byte
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		encodeBinaryRecord(rec[:], e)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestBinaryV2RoundTripAndV1BackCompat(t *testing.T) {
	events := testEvents(40000) // spans multiple v2 blocks
	var v2 bytes.Buffer
	if err := WriteBinary(&v2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v2.Bytes(), artifact.Magic[:]) {
		t.Fatal("WriteBinary did not emit the v2 container magic")
	}
	got, err := ReadBinary(bytes.NewReader(v2.Bytes()))
	if err != nil || !eventsEqual(got, events) {
		t.Fatalf("v2 round trip failed: n=%d err=%v", len(got), err)
	}

	var v1 bytes.Buffer
	if err := writeBinaryV1(&v1, events); err != nil {
		t.Fatal(err)
	}
	got, err = ReadBinary(bytes.NewReader(v1.Bytes()))
	if err != nil || !eventsEqual(got, events) {
		t.Fatalf("v1 back-compat read failed: n=%d err=%v", len(got), err)
	}
}

// TestBinaryV2BitFlipNamesBlock is the acceptance criterion: a single
// flipped bit in a v2 trace must be rejected with a checksum error that
// names the damaged block.
func TestBinaryV2BitFlipNamesBlock(t *testing.T) {
	events := testEvents(binaryBlockRecords + 100) // two blocks
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit inside the second block's payload.
	off := len(data) - 40 // within block 1's payload, before the trailer
	data[off] ^= 0x04
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil || !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("flipped bit not detected as corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("error does not name the damaged block: %v", err)
	}

	// Salvage must keep exactly the first block.
	got, rep, serr := ReadBinarySalvage(bytes.NewReader(data))
	if serr != nil {
		t.Fatalf("salvage errored on readable header: %v", serr)
	}
	if len(got) != binaryBlockRecords || !eventsEqual(got, events[:binaryBlockRecords]) {
		t.Fatalf("salvage kept %d events, want %d", len(got), binaryBlockRecords)
	}
	if !rep.Corrupt || rep.RecordsKept != binaryBlockRecords || rep.BlocksKept != 1 {
		t.Fatalf("inaccurate salvage report: %+v", rep)
	}
}

// TestBinaryV2TruncationMatrix cuts a small v2 trace at a range of lengths:
// every cut must be detected, and salvage must return only verified events.
func TestBinaryV2TruncationMatrix(t *testing.T) {
	events := testEvents(100)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", cut, len(data))
		}
		got, rep, _ := ReadBinarySalvage(bytes.NewReader(data[:cut]))
		if len(got) > 0 && !eventsEqual(got, events[:len(got)]) {
			t.Fatalf("cut %d: salvage returned wrong events", cut)
		}
		if rep != nil && uint64(len(got)) != rep.RecordsKept {
			t.Fatalf("cut %d: report says %d kept, got %d", cut, rep.RecordsKept, len(got))
		}
	}
}

func TestBinaryV1TruncationSalvage(t *testing.T) {
	events := testEvents(50)
	var buf bytes.Buffer
	if err := writeBinaryV1(&buf, events); err != nil {
		t.Fatal(err)
	}
	// Cut mid-record: strict read fails, salvage keeps the whole records.
	cut := 8 + 20*binaryRecordSize + 5
	data := buf.Bytes()[:cut]
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("torn v1 record went undetected")
	}
	got, rep, err := ReadBinarySalvage(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("salvage errored: %v", err)
	}
	if len(got) != 20 || !eventsEqual(got, events[:20]) {
		t.Fatalf("v1 salvage kept %d events, want 20", len(got))
	}
	if !rep.Truncated || rep.RecordsKept != 20 || rep.Format != "TRACEBIN/v1" {
		t.Fatalf("inaccurate v1 salvage report: %+v", rep)
	}
}

func TestBinaryWrongMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("WRONG!!!magic and then some bytes"))
	if err == nil || !errors.Is(err, ErrFormat) {
		t.Fatalf("wrong magic not rejected: %v", err)
	}
	_, rep, serr := ReadBinarySalvage(strings.NewReader("WRONG!!!magic"))
	if serr == nil {
		t.Fatal("salvage must propagate an unusable header")
	}
	if rep == nil || rep.RecordsKept != 0 {
		t.Fatalf("salvage report on bad magic: %+v", rep)
	}
}

func TestBinaryFutureVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	bw, err := artifact.NewBlockWriter(&buf, BinaryFormatTag, BinaryFormatVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("future version not rejected: %v", err)
	}
}

// --- permissive text parsing ---

func TestNVMainPermissiveParsing(t *testing.T) {
	input := "100 R 0x400 0\ngarbage line\n200 W 0x440 1\n300 Z 0x480 0\n400 R 0x4C0 2\n"

	// Strict: first malformed line fails the read.
	if _, err := ReadNVMain(strings.NewReader(input)); err == nil {
		t.Fatal("strict read accepted malformed input")
	}

	// Permissive: malformed lines dropped and reported.
	events, rep, err := ReadNVMainOpts(strings.NewReader(input), TextOptions{})
	if err != nil {
		t.Fatalf("permissive read failed: %v", err)
	}
	if len(events) != 3 || rep.BadLines != 2 || rep.Lines != 5 || rep.Events != 3 {
		t.Fatalf("permissive accounting wrong: n=%d rep=%+v", len(events), rep)
	}
	if len(rep.Sample) != 2 || rep.Sample[0].Line != 2 || rep.Sample[1].Line != 4 {
		t.Fatalf("bad-line sample wrong: %+v", rep.Sample)
	}
	if rep.Clean() {
		t.Fatal("report with dropped lines claims clean")
	}

	// Budget: more bad lines than allowed fails with ErrBadLineBudget.
	_, rep2, err := ReadNVMainOpts(strings.NewReader(input), TextOptions{MaxBadLines: 1})
	if err == nil || !errors.Is(err, ErrBadLineBudget) {
		t.Fatalf("budget overflow not surfaced: %v", err)
	}
	if rep2.BadLines != 2 {
		t.Fatalf("budget report wrong: %+v", rep2)
	}
}

func TestGem5PermissiveParsing(t *testing.T) {
	input := "500: system.cpu.dcache: ReadReq addr=0x4000 size=8 thread=0\n" +
		"mangled: system.cpu.dcache: ReadReq addr=0x40\n" +
		"1000: system.cpu.dcache: WriteReq addr=0x4040 size=8 thread=1\n"
	if _, err := ReadGem5(strings.NewReader(input), 500); err == nil {
		t.Fatal("strict gem5 read accepted malformed input")
	}
	events, rep, err := ReadGem5Opts(strings.NewReader(input), 500, TextOptions{})
	if err != nil || len(events) != 2 || rep.BadLines != 1 {
		t.Fatalf("permissive gem5 read: n=%d rep=%+v err=%v", len(events), rep, err)
	}
}

func TestConvertPermissive(t *testing.T) {
	var in bytes.Buffer
	for i := 0; i < 2000; i++ {
		if i%100 == 50 {
			in.WriteString("corrupted-line-with-no: structure addr=0xq\n")
			continue
		}
		in.WriteString("500: system.cpu.dcache: ReadReq addr=0x4000 size=8 thread=0\n")
	}
	// Strict stream conversion fails.
	var out bytes.Buffer
	if _, err := ConvertStream(bytes.NewReader(in.Bytes()), &out, 500, 2, 4096); err == nil {
		t.Fatal("strict conversion accepted malformed input")
	}
	// Permissive conversion drops and counts them.
	out.Reset()
	st, err := ConvertStreamOpts(bytes.NewReader(in.Bytes()), &out, ConvertOptions{
		TicksPerCycle: 500, Workers: 2, ChunkSize: 4096,
	})
	if err != nil {
		t.Fatalf("permissive conversion failed: %v", err)
	}
	if st.BadLines != 20 || st.EventsOut != 1980 {
		t.Fatalf("permissive conversion stats wrong: %+v", st)
	}
	// Budget enforcement.
	_, err = ConvertStreamOpts(bytes.NewReader(in.Bytes()), io.Discard, ConvertOptions{
		TicksPerCycle: 500, Text: TextOptions{MaxBadLines: 5},
	})
	if err == nil || !errors.Is(err, ErrBadLineBudget) {
		t.Fatalf("conversion budget not enforced: %v", err)
	}
	// Sequential permissive path agrees.
	out.Reset()
	st2, err := ConvertSequentialOpts(bytes.NewReader(in.Bytes()), &out, ConvertOptions{TicksPerCycle: 500})
	if err != nil || st2.BadLines != 20 || st2.EventsOut != 1980 {
		t.Fatalf("sequential permissive stats wrong: %+v err=%v", st2, err)
	}
}
