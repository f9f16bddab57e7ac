package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Checksummed container framing. Layout (all integers little-endian):
//
//	header   magic[8]="GDSECHK1" | format[8] | version u32 | crc32c(first 20 bytes) u32
//	block    payloadLen u32 | records u32 | crc32c(payload) u32 | payload[payloadLen]
//	trailer  trailerMark u32 = 0xFFFFFFFF | totalRecords u64 | crc32c(totalRecords bytes) u32
//
// format is a payload-defined 8-byte tag ("TRACEBIN", "DSEDATA") and
// version its format version, making every artifact self-describing. Blocks
// are independently verifiable, so a reader can stop at the first damaged
// frame and keep everything before it; the trailer seals the record total so
// a file cut exactly at a block boundary is still detected as truncated.
// payloadLen is capped at MaxBlockPayload, so a corrupt length prefix can
// never drive a multi-gigabyte allocation.

// Magic identifies a checksummed container stream. Readers of formats with
// a v1 (unframed) history peek these bytes to dispatch.
var Magic = [8]byte{'G', 'D', 'S', 'E', 'C', 'H', 'K', '1'}

// MaxBlockPayload bounds a single block's payload. Writers chunk above it;
// readers reject larger length prefixes as corrupt before allocating.
const MaxBlockPayload = 16 << 20

// trailerMark is an impossible payloadLen (> MaxBlockPayload) marking the
// trailer frame.
const trailerMark = 0xFFFFFFFF

// DefaultBlockSize is the payload size the byte-stream Writer flushes at.
const DefaultBlockSize = 256 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the container's block checksum (CRC32-Castagnoli).
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

const headerSize = 24
const frameHeaderSize = 12

// BlockWriter frames payload blocks into a checksummed container. Close
// writes the sealing trailer; the underlying writer is not closed.
type BlockWriter struct {
	w       io.Writer
	records uint64
	closed  bool
}

// NewBlockWriter writes the container header for the given format tag (at
// most 8 bytes) and version, and returns a writer for its blocks.
func NewBlockWriter(w io.Writer, format string, version uint32) (*BlockWriter, error) {
	if len(format) > 8 {
		return nil, fmt.Errorf("artifact: format tag %q longer than 8 bytes", format)
	}
	var hdr [headerSize]byte
	copy(hdr[0:8], Magic[:])
	copy(hdr[8:16], format)
	binary.LittleEndian.PutUint32(hdr[16:20], version)
	binary.LittleEndian.PutUint32(hdr[20:24], Checksum(hdr[:20]))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &BlockWriter{w: w}, nil
}

// WriteBlock frames one payload block carrying the given record count.
func (bw *BlockWriter) WriteBlock(payload []byte, records uint32) error {
	if bw.closed {
		return fmt.Errorf("artifact: write to closed container")
	}
	if len(payload) == 0 {
		return fmt.Errorf("artifact: empty block")
	}
	if len(payload) > MaxBlockPayload {
		return fmt.Errorf("artifact: block payload %d exceeds max %d", len(payload), MaxBlockPayload)
	}
	var fh [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(fh[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fh[4:8], records)
	binary.LittleEndian.PutUint32(fh[8:12], Checksum(payload))
	if _, err := bw.w.Write(fh[:]); err != nil {
		return err
	}
	if _, err := bw.w.Write(payload); err != nil {
		return err
	}
	bw.records += uint64(records)
	return nil
}

// Close seals the container with the trailer frame. It does not close the
// underlying writer.
func (bw *BlockWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	var tr [16]byte
	binary.LittleEndian.PutUint32(tr[0:4], trailerMark)
	binary.LittleEndian.PutUint64(tr[4:12], bw.records)
	binary.LittleEndian.PutUint32(tr[12:16], Checksum(tr[4:12]))
	_, err := bw.w.Write(tr[:])
	return err
}

// BlockReader reads and verifies a checksummed container block by block.
type BlockReader struct {
	r        io.Reader
	format   string
	version  uint32
	buf      []byte
	blocks   uint64
	records  uint64
	verified int64 // bytes of frames fully verified so far
	done     bool
	err      error
}

// NewBlockReader reads and verifies the container header. A stream that does
// not begin with the container magic fails with ErrCorrupt (callers that
// support legacy unframed formats should peek and dispatch before calling).
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: container header: %v", ErrTruncated, err)
	}
	if [8]byte(hdr[0:8]) != Magic {
		return nil, fmt.Errorf("%w: bad container magic %q", ErrCorrupt, hdr[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[20:24]), Checksum(hdr[:20]); got != want {
		return nil, fmt.Errorf("%w: header checksum %#x != %#x", ErrCorrupt, got, want)
	}
	format := string(hdr[8:16])
	for len(format) > 0 && format[len(format)-1] == 0 {
		format = format[:len(format)-1]
	}
	return &BlockReader{
		r:        r,
		format:   format,
		version:  binary.LittleEndian.Uint32(hdr[16:20]),
		verified: headerSize,
	}, nil
}

// Format returns the container's payload format tag.
func (br *BlockReader) Format() string { return br.format }

// Version returns the container's payload format version.
func (br *BlockReader) Version() uint32 { return br.version }

// Blocks returns the number of blocks verified so far.
func (br *BlockReader) Blocks() uint64 { return br.blocks }

// Records returns the sum of verified block record counts so far.
func (br *BlockReader) Records() uint64 { return br.records }

// BytesVerified returns the length of the verified prefix, including the
// header and frame headers.
func (br *BlockReader) BytesVerified() int64 { return br.verified }

// Next returns the next verified block's payload and record count. The
// payload is only valid until the following Next call. At the trailer it
// verifies the sealed record total and returns io.EOF. Damage is reported as
// ErrCorrupt (checksum/structure, naming the block) or ErrTruncated (torn
// frame); the error is sticky.
func (br *BlockReader) Next() ([]byte, uint32, error) {
	if br.err != nil {
		return nil, 0, br.err
	}
	if br.done {
		br.err = io.EOF
		return nil, 0, io.EOF
	}
	var fh [frameHeaderSize]byte
	if _, err := io.ReadFull(br.r, fh[:4]); err != nil {
		if err == io.EOF {
			br.err = fmt.Errorf("%w: missing trailer after block %d", ErrTruncated, br.blocks)
		} else {
			br.err = fmt.Errorf("%w: frame header after block %d: %v", ErrTruncated, br.blocks, err)
		}
		return nil, 0, br.err
	}
	payloadLen := binary.LittleEndian.Uint32(fh[0:4])
	if payloadLen == trailerMark {
		var tr [12]byte
		if _, err := io.ReadFull(br.r, tr[:]); err != nil {
			br.err = fmt.Errorf("%w: trailer: %v", ErrTruncated, err)
			return nil, 0, br.err
		}
		total := binary.LittleEndian.Uint64(tr[0:8])
		if got, want := binary.LittleEndian.Uint32(tr[8:12]), Checksum(tr[0:8]); got != want {
			br.err = fmt.Errorf("%w: trailer checksum %#x != %#x", ErrCorrupt, got, want)
			return nil, 0, br.err
		}
		if total != br.records {
			br.err = fmt.Errorf("%w: trailer seals %d records, read %d", ErrCorrupt, total, br.records)
			return nil, 0, br.err
		}
		br.verified += 16
		br.done = true
		br.err = io.EOF
		return nil, 0, io.EOF
	}
	if payloadLen == 0 || payloadLen > MaxBlockPayload {
		br.err = fmt.Errorf("%w: block %d claims implausible payload %d bytes", ErrCorrupt, br.blocks, payloadLen)
		return nil, 0, br.err
	}
	if _, err := io.ReadFull(br.r, fh[4:]); err != nil {
		br.err = fmt.Errorf("%w: block %d frame header: %v", ErrTruncated, br.blocks, err)
		return nil, 0, br.err
	}
	records := binary.LittleEndian.Uint32(fh[4:8])
	wantCRC := binary.LittleEndian.Uint32(fh[8:12])
	if cap(br.buf) < int(payloadLen) {
		br.buf = make([]byte, payloadLen)
	}
	payload := br.buf[:payloadLen]
	if _, err := io.ReadFull(br.r, payload); err != nil {
		br.err = fmt.Errorf("%w: block %d payload: %v", ErrTruncated, br.blocks, err)
		return nil, 0, br.err
	}
	if got := Checksum(payload); got != wantCRC {
		br.err = fmt.Errorf("%w: block %d checksum %#x != %#x", ErrCorrupt, br.blocks, got, wantCRC)
		return nil, 0, br.err
	}
	br.blocks++
	br.records += uint64(records)
	br.verified += frameHeaderSize + int64(payloadLen)
	return payload, records, nil
}

// Report turns the reader's terminal state into a SalvageReport for the
// error that stopped it (io.EOF or nil means a clean, sealed end).
func (br *BlockReader) Report(err error) *SalvageReport {
	rep := &SalvageReport{
		Format:       br.format,
		RecordsKept:  br.records,
		BlocksKept:   br.blocks,
		BytesKept:    br.verified,
		DroppedBytes: -1,
	}
	if err == nil || err == io.EOF {
		return rep
	}
	rep.Reason = err.Error()
	if errors.Is(err, ErrCorrupt) {
		rep.Corrupt = true
	} else {
		rep.Truncated = true
	}
	return rep
}

// Writer adapts the container to an io.Writer for formats whose payload is
// an opaque byte stream (JSON envelopes, CSV datasets): bytes are buffered
// into DefaultBlockSize blocks, and each block's record count is its payload
// byte length, so the trailer seals the exact stream length. Close flushes
// the final block and the trailer.
type Writer struct {
	bw  *BlockWriter
	buf []byte
}

// NewWriter starts a byte-stream container on w.
func NewWriter(w io.Writer, format string, version uint32) (*Writer, error) {
	bw, err := NewBlockWriter(w, format, version)
	if err != nil {
		return nil, err
	}
	return &Writer{bw: bw, buf: make([]byte, 0, DefaultBlockSize)}, nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		room := DefaultBlockSize - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) == DefaultBlockSize {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.bw.WriteBlock(w.buf, uint32(len(w.buf)))
	w.buf = w.buf[:0]
	return err
}

// Close flushes buffered bytes and seals the container.
func (w *Writer) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.bw.Close()
}

// Reader adapts a byte-stream container back to an io.Reader, serving only
// checksum-verified bytes. Read returns io.EOF exactly when the sealed
// trailer has been verified; damage surfaces as ErrCorrupt/ErrTruncated.
type Reader struct {
	br  *BlockReader
	buf []byte
	pos int
}

// NewReader opens a byte-stream container, verifying its header.
func NewReader(r io.Reader) (*Reader, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	return &Reader{br: br}, nil
}

// Format returns the container's payload format tag.
func (r *Reader) Format() string { return r.br.Format() }

// Version returns the container's payload format version.
func (r *Reader) Version() uint32 { return r.br.Version() }

// Read implements io.Reader over the verified payload stream.
func (r *Reader) Read(p []byte) (int, error) {
	for r.pos >= len(r.buf) {
		payload, _, err := r.br.Next()
		if err != nil {
			return 0, err
		}
		// Copy: BlockReader reuses its buffer across Next calls.
		r.buf = append(r.buf[:0], payload...)
		r.pos = 0
	}
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	return n, nil
}
