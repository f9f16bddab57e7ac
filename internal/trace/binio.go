package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"graphdse/internal/artifact"
)

// Binary trace formats. Records are fixed 18-byte little-endian tuples
// (cycle:8, addr:8, op:1, thread:1) — roughly 3× more compact than the text
// format and an order of magnitude faster to parse.
//
// v1 is a bare 8-byte magic followed by records: compact but fragile — a
// flipped bit in an addr or cycle field is undetectable. v2 wraps the same
// records in the artifact checksummed container (per-block CRC32-Castagnoli,
// record counts, sealed trailer), so bit rot is detected and named, and a
// torn file salvages to its longest valid block prefix. Writers emit v2;
// readers accept both transparently.

var binaryMagic = [8]byte{'G', 'D', 'S', 'E', 'T', 'R', 'C', '1'}

const binaryRecordSize = 18

// BinaryFormatTag and BinaryFormatVersion identify the v2 fixed-record trace
// container.
const (
	BinaryFormatTag     = "TRACEBIN"
	BinaryFormatVersion = 2
)

// binaryBlockRecords is the number of records per v2 block (~288 KiB).
const binaryBlockRecords = 16384

func encodeBinaryRecord(rec []byte, e Event) {
	binary.LittleEndian.PutUint64(rec[0:8], e.Cycle)
	binary.LittleEndian.PutUint64(rec[8:16], e.Addr)
	rec[16] = byte(e.Op)
	rec[17] = e.Thread
}

func decodeBinaryRecord(rec []byte) Event {
	return Event{
		Cycle:  binary.LittleEndian.Uint64(rec[0:8]),
		Addr:   binary.LittleEndian.Uint64(rec[8:16]),
		Op:     Op(rec[16]),
		Thread: rec[17],
	}
}

// WriteBinary encodes events in the checksummed v2 binary trace format.
func WriteBinary(w io.Writer, events []Event) error {
	sink := NewBinarySink(w)
	if err := sink.Emit(events); err != nil {
		return err
	}
	return sink.Flush()
}

// ReadBinary decodes a binary trace stream, accepting both the legacy v1
// format and the checksummed v2 container. Any damage fails the read; use
// ReadBinarySalvage to recover the valid prefix of a damaged trace.
func ReadBinary(r io.Reader) ([]Event, error) {
	return Collect(NewBinarySource(r))
}

// ReadBinarySalvage reads as much of a binary trace as is provably intact,
// returning the recovered prefix and a report of what was dropped. For v2
// input every returned event sits in a checksum-verified block; for v1 the
// prefix ends at the first short or invalid record. The error is non-nil
// only when the stream's header is unusable (wrong magic).
func ReadBinarySalvage(r io.Reader) ([]Event, *artifact.SalvageReport, error) {
	src := NewBinarySource(r)
	events, err := Collect(src)
	rep := src.salvageReport(err)
	if err != nil && src.headerErr {
		return nil, rep, err
	}
	return events, rep, nil
}

// binaryVersion tells the two on-disk binary generations apart.
type binaryVersion int

const (
	binaryUnknown binaryVersion = iota
	binaryV1
	binaryV2
)

// sniffBinary peeks the stream's first 8 bytes and dispatches.
func sniffBinary(br *bufio.Reader) (binaryVersion, error) {
	head, err := br.Peek(8)
	if err != nil {
		return binaryUnknown, fmt.Errorf("%w: missing magic: %v", ErrFormat, err)
	}
	switch {
	case [8]byte(head) == binaryMagic:
		return binaryV1, nil
	case [8]byte(head) == artifact.Magic:
		return binaryV2, nil
	default:
		return binaryUnknown, fmt.Errorf("%w: bad magic %q", ErrFormat, head)
	}
}
