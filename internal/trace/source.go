package trace

import (
	"bufio"
	"container/heap"
	"errors"
	"fmt"
	"io"

	"graphdse/internal/artifact"
)

// This file is the streaming core of the trace pipeline. The paper's
// workflow moves a ~91.5M-line trace between four tools (system simulator →
// converter → memory simulator → DSE); materializing it as a []Event at
// every hop is what bounds the repro to toy traces. Source and Sink make the
// trace a stream: every text/binary format gains a constant-memory reader
// and writer, and the slice-based helpers are retained as thin adapters.

// DefaultBatch is the batch size used by the package's own streaming loops.
// It is large enough to amortize interface-call overhead and small enough to
// stay cache-resident.
const DefaultBatch = 4096

// Source is a pull-based stream of trace events.
//
// Next fills batch with as many events as are available (at least one, at
// most len(batch)) and returns the count. At end of stream it returns 0 and
// io.EOF; it never returns n > 0 together with a non-nil error. A Source is
// single-use and not safe for concurrent calls.
type Source interface {
	Next(batch []Event) (n int, err error)
}

// Sink consumes batches of trace events. Emit may retain nothing from the
// batch after it returns; callers are free to reuse the slice.
type Sink interface {
	Emit(events []Event) error
}

// SliceSource adapts an in-memory []Event to the Source interface. It does
// not copy the backing slice; callers must not mutate it while streaming.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source reading from events.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next implements Source.
func (s *SliceSource) Next(batch []Event) (int, error) {
	if s.pos >= len(s.events) {
		return 0, io.EOF
	}
	n := copy(batch, s.events[s.pos:])
	s.pos += n
	return n, nil
}

// Len returns the number of events remaining in the source.
func (s *SliceSource) Len() int { return len(s.events) - s.pos }

// SliceSink accumulates emitted events into Events.
type SliceSink struct {
	Events []Event
}

// Emit implements Sink.
func (s *SliceSink) Emit(events []Event) error {
	s.Events = append(s.Events, events...)
	return nil
}

// Collect drains a source into a slice.
func Collect(src Source) ([]Event, error) {
	var out []Event
	batch := make([]Event, DefaultBatch)
	for {
		n, err := src.Next(batch)
		out = append(out, batch[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// Copy streams every event from src into dst, returning the number of
// events moved. It does not flush dst.
func Copy(dst Sink, src Source) (int64, error) {
	var total int64
	batch := make([]Event, DefaultBatch)
	for {
		n, err := src.Next(batch)
		if n > 0 {
			if serr := dst.Emit(batch[:n]); serr != nil {
				return total, serr
			}
			total += int64(n)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// ForEach drains a source one event at a time, stopping on the first error
// returned by fn.
func ForEach(src Source, fn func(Event) error) error {
	batch := make([]Event, DefaultBatch)
	for {
		n, err := src.Next(batch)
		for _, e := range batch[:n] {
			if ferr := fn(e); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// TextSource streams events from a line-oriented text format. In strict
// mode (the default) the first malformed line fails the stream; in
// permissive mode malformed lines are dropped and recorded against the
// error budget, and Report says exactly what was skipped.
type TextSource struct {
	sc     *bufio.Scanner
	parse  func([]byte) (Event, bool, error)
	opts   TextOptions
	report TextReport
	err    error
}

func newTextSource(r io.Reader, opts TextOptions, parse func([]byte) (Event, bool, error)) *TextSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &TextSource{sc: sc, parse: parse, opts: opts}
}

// Report returns the running parse accounting. It is complete once Next has
// returned a terminal error (io.EOF or otherwise).
func (s *TextSource) Report() *TextReport { return &s.report }

func (s *TextSource) Next(batch []Event) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := 0
	for n < len(batch) {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.err = err
			} else {
				s.err = io.EOF
			}
			break
		}
		s.report.Lines++
		e, ok, err := s.parse(s.sc.Bytes())
		if err != nil {
			if s.opts.Strict {
				s.err = fmt.Errorf("line %d: %w", s.report.Lines, err)
				break
			}
			s.report.addBadLine(s.report.Lines, s.sc.Bytes(), err)
			if s.opts.MaxBadLines > 0 && s.report.BadLines > s.opts.MaxBadLines {
				s.err = fmt.Errorf("line %d: %w (%d malformed lines, budget %d)",
					s.report.Lines, ErrBadLineBudget, s.report.BadLines, s.opts.MaxBadLines)
				break
			}
			continue
		}
		if !ok {
			continue
		}
		s.report.Events++
		batch[n] = e
		n++
	}
	if n > 0 {
		return n, nil
	}
	return 0, s.err
}

// NewGem5Source streams memory events from a gem5-style text trace,
// skipping non-memory lines, in constant memory. Malformed lines fail the
// stream; NewGem5SourceOpts selects permissive parsing.
func NewGem5Source(r io.Reader, ticksPerCycle uint64) Source {
	return NewGem5SourceOpts(r, ticksPerCycle, TextOptions{Strict: true})
}

// NewGem5SourceOpts streams a gem5-style text trace under the given
// strict/permissive options.
func NewGem5SourceOpts(r io.Reader, ticksPerCycle uint64, opts TextOptions) *TextSource {
	return newTextSource(r, opts, func(line []byte) (Event, bool, error) {
		return parseGem5Line(line, ticksPerCycle)
	})
}

// NewNVMainSource streams events from an NVMain-format text trace in
// constant memory. Malformed lines fail the stream; NewNVMainSourceOpts
// selects permissive parsing.
func NewNVMainSource(r io.Reader) Source {
	return NewNVMainSourceOpts(r, TextOptions{Strict: true})
}

// NewNVMainSourceOpts streams an NVMain-format text trace under the given
// strict/permissive options.
func NewNVMainSourceOpts(r io.Reader, opts TextOptions) *TextSource {
	return newTextSource(r, opts, parseNVMainLine)
}

// BinarySource streams events from the binary trace format, accepting both
// the legacy v1 layout and the checksummed v2 container (auto-detected from
// the magic on the first Next call). In the v2 path every event handed out
// comes from a checksum-verified block.
type BinarySource struct {
	br      *bufio.Reader
	version binaryVersion
	blocks  *artifact.BlockReader

	// pending holds decoded events from the current v2 block.
	pending []Event
	pos     int

	records   uint64 // events handed out so far
	truncated bool   // terminal error was a torn read
	corrupt   bool   // terminal error was detected damage
	headerErr bool   // stream unusable from the start (bad magic)
	err       error
}

// NewBinarySource returns a Source decoding the binary trace format from r.
// The magic header is checked on the first Next call.
func NewBinarySource(r io.Reader) *BinarySource {
	return &BinarySource{br: bufio.NewReader(r)}
}

func (s *BinarySource) fail(truncated, corrupt bool, err error) error {
	s.truncated, s.corrupt = truncated, corrupt
	s.err = err
	return err
}

func (s *BinarySource) start() error {
	v, err := sniffBinary(s.br)
	if err != nil {
		s.headerErr = true
		return s.fail(false, true, err)
	}
	s.version = v
	if v == binaryV1 {
		if _, err := io.ReadFull(s.br, make([]byte, 8)); err != nil {
			s.headerErr = true
			return s.fail(true, false, fmt.Errorf("%w: missing magic: %v", ErrFormat, err))
		}
		return nil
	}
	blocks, err := artifact.NewBlockReader(s.br)
	if err != nil {
		s.headerErr = true
		return s.fail(errors.Is(err, artifact.ErrTruncated), errors.Is(err, artifact.ErrCorrupt),
			fmt.Errorf("%w: %w", ErrFormat, err))
	}
	if blocks.Format() != BinaryFormatTag {
		s.headerErr = true
		return s.fail(false, true, fmt.Errorf("%w: container holds %q, want %q", ErrFormat, blocks.Format(), BinaryFormatTag))
	}
	if blocks.Version() > BinaryFormatVersion {
		s.headerErr = true
		return s.fail(false, true, fmt.Errorf("%w: trace format version %d newer than supported %d",
			ErrFormat, blocks.Version(), BinaryFormatVersion))
	}
	s.blocks = blocks
	return nil
}

// nextV1 serves records from the bare v1 stream.
func (s *BinarySource) nextV1(batch []Event) (int, error) {
	n := 0
	var rec [binaryRecordSize]byte
	for n < len(batch) {
		_, err := io.ReadFull(s.br, rec[:])
		if err == io.EOF {
			s.err = io.EOF
			break
		}
		if err != nil {
			s.fail(true, false, fmt.Errorf("%w: truncated record %d: %v", ErrFormat, s.records, err))
			break
		}
		e := decodeBinaryRecord(rec[:])
		if verr := e.Validate(); verr != nil {
			s.fail(false, true, fmt.Errorf("record %d: %w", s.records, verr))
			break
		}
		batch[n] = e
		n++
		s.records++
	}
	if n > 0 {
		return n, nil
	}
	return 0, s.err
}

// fillV2 decodes the next verified container block into pending.
func (s *BinarySource) fillV2() error {
	payload, records, err := s.blocks.Next()
	if err == io.EOF {
		return s.fail(false, false, io.EOF)
	}
	if err != nil {
		return s.fail(errors.Is(err, artifact.ErrTruncated), errors.Is(err, artifact.ErrCorrupt),
			fmt.Errorf("%w: %w", ErrFormat, err))
	}
	if len(payload)%binaryRecordSize != 0 || int(records)*binaryRecordSize != len(payload) {
		return s.fail(false, true, fmt.Errorf("%w: block %d payload %d bytes does not hold %d records",
			ErrFormat, s.blocks.Blocks()-1, len(payload), records))
	}
	if cap(s.pending) < int(records) {
		s.pending = make([]Event, records)
	}
	s.pending = s.pending[:records]
	for i := range s.pending {
		e := decodeBinaryRecord(payload[i*binaryRecordSize:])
		if verr := e.Validate(); verr != nil {
			s.pending = s.pending[:0]
			return s.fail(false, true, fmt.Errorf("block %d record %d: %w", s.blocks.Blocks()-1, i, verr))
		}
		s.pending[i] = e
	}
	s.pos = 0
	return nil
}

// Next implements Source.
func (s *BinarySource) Next(batch []Event) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.version == binaryUnknown {
		if err := s.start(); err != nil {
			return 0, err
		}
	}
	if s.version == binaryV1 {
		return s.nextV1(batch)
	}
	n := 0
	for n < len(batch) {
		if s.pos >= len(s.pending) {
			if err := s.fillV2(); err != nil {
				break
			}
		}
		c := copy(batch[n:], s.pending[s.pos:])
		s.pos += c
		n += c
		s.records += uint64(c)
	}
	if n > 0 {
		return n, nil
	}
	return 0, s.err
}

// salvageReport describes how far the source got and why it stopped, for
// ReadBinarySalvage.
func (s *BinarySource) salvageReport(err error) *artifact.SalvageReport {
	rep := &artifact.SalvageReport{
		Format:       BinaryFormatTag,
		RecordsKept:  s.records,
		DroppedBytes: -1,
		Truncated:    s.truncated,
		Corrupt:      s.corrupt,
	}
	if s.version == binaryV1 {
		rep.Format = BinaryFormatTag + "/v1"
		rep.BytesKept = 8 + int64(s.records)*binaryRecordSize
	} else if s.blocks != nil {
		rep.BlocksKept = s.blocks.Blocks()
		rep.BytesKept = s.blocks.BytesVerified()
	}
	if err != nil && err != io.EOF {
		rep.Reason = err.Error()
		if !rep.Truncated && !rep.Corrupt {
			rep.Corrupt = true
		}
	}
	return rep
}

// SalvageSource adapts a BinarySource into permissive mode for streaming
// consumers: a terminal corruption or truncation error after at least the
// header was valid ends the stream like clean EOF, keeping the verified
// prefix, and Report says what was lost. Bad magic and plain I/O errors
// still fail — there is nothing to salvage from those.
type SalvageSource struct {
	src *BinarySource
	rep *artifact.SalvageReport
}

// NewSalvageSource wraps src in prefix-salvaging mode.
func NewSalvageSource(src *BinarySource) *SalvageSource {
	return &SalvageSource{src: src}
}

// Report returns the salvage accounting, or nil while the stream is clean.
func (s *SalvageSource) Report() *artifact.SalvageReport { return s.rep }

// Next implements Source.
func (s *SalvageSource) Next(batch []Event) (int, error) {
	if s.rep != nil {
		return 0, io.EOF
	}
	n, err := s.src.Next(batch)
	if err != nil && err != io.EOF && !s.src.headerErr && (s.src.truncated || s.src.corrupt) {
		s.rep = s.src.salvageReport(err)
		if n > 0 {
			return n, nil
		}
		return 0, io.EOF
	}
	return n, err
}

// NVMainSink streams events to w in NVMain text format.
type NVMainSink struct {
	bw   *bufio.Writer
	line [maxNVMainLine]byte
}

// NewNVMainSink returns a Sink writing NVMain-format text to w.
func NewNVMainSink(w io.Writer) *NVMainSink {
	return &NVMainSink{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (s *NVMainSink) Emit(events []Event) error {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		if _, err := s.bw.Write(appendNVMainLine(s.line[:0], e)); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (s *NVMainSink) Flush() error { return s.bw.Flush() }

// Gem5Sink streams events to w in the gem5-style text format.
type Gem5Sink struct {
	bw    *bufio.Writer
	ticks uint64
	line  [maxGem5Line]byte
}

// NewGem5Sink returns a Sink writing gem5-style text to w; ticksPerCycle
// scales cycles to simulator ticks (0 means 1).
func NewGem5Sink(w io.Writer, ticksPerCycle uint64) *Gem5Sink {
	if ticksPerCycle == 0 {
		ticksPerCycle = 1
	}
	return &Gem5Sink{bw: bufio.NewWriter(w), ticks: ticksPerCycle}
}

// Emit implements Sink.
func (s *Gem5Sink) Emit(events []Event) error {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		if _, err := s.bw.Write(appendGem5Line(s.line[:0], e, s.ticks)); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (s *Gem5Sink) Flush() error { return s.bw.Flush() }

// BinarySink streams events to w in the checksummed v2 binary trace format,
// buffering records into container blocks of binaryBlockRecords events.
// Flush seals the container (writing the trailer); a sealed sink accepts no
// further events.
type BinarySink struct {
	bw      *bufio.Writer
	blocks  *artifact.BlockWriter
	buf     []byte
	records uint32
	sealed  bool
}

// NewBinarySink returns a Sink writing the binary trace format to w. The
// container header is written lazily, before the first record (or by Flush
// for an empty trace).
func NewBinarySink(w io.Writer) *BinarySink {
	return &BinarySink{bw: bufio.NewWriter(w)}
}

func (s *BinarySink) writeHeader() error {
	if s.blocks != nil {
		return nil
	}
	blocks, err := artifact.NewBlockWriter(s.bw, BinaryFormatTag, BinaryFormatVersion)
	if err != nil {
		return err
	}
	s.blocks = blocks
	s.buf = make([]byte, 0, binaryBlockRecords*binaryRecordSize)
	return nil
}

func (s *BinarySink) flushBlock() error {
	if s.records == 0 {
		return nil
	}
	if err := s.blocks.WriteBlock(s.buf, s.records); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.records = 0
	return nil
}

// Emit implements Sink.
func (s *BinarySink) Emit(events []Event) error {
	if s.sealed {
		return fmt.Errorf("%w: emit to sealed binary sink", ErrFormat)
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	var rec [binaryRecordSize]byte
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		encodeBinaryRecord(rec[:], e)
		s.buf = append(s.buf, rec[:]...)
		s.records++
		if s.records == binaryBlockRecords {
			if err := s.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes any buffered block, seals the container with its trailer,
// and flushes the underlying writer. The sink cannot be written after.
func (s *BinarySink) Flush() error {
	if s.sealed {
		return s.bw.Flush()
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	if err := s.flushBlock(); err != nil {
		return err
	}
	if err := s.blocks.Close(); err != nil {
		return err
	}
	s.sealed = true
	return s.bw.Flush()
}

// mergeSource is a heap-based k-way streaming merge: only one read-ahead
// batch per input is resident, so merging k paper-scale traces needs
// k × DefaultBatch events of memory, not the sum of their lengths.
type mergeSource struct {
	stride uint64
	srcs   []Source
	bufs   [][]Event
	pos    []int // cursor into bufs[i]
	n      []int // valid events in bufs[i]
	heap   []int // source indices, min-heap on (head cycle, index)
	init   bool
	err    error
}

// MergeSources interleaves multiple sources into one time-ordered stream
// with Merge's exact semantics: each input's addresses are offset into a
// disjoint window (addrStride per input, 0 keeps original addresses) and
// events are retagged with their input index as the thread ID. Ties on
// cycle are broken by input order. The merge is streaming — memory use is
// bounded by one read-ahead batch per input.
func MergeSources(addrStride uint64, srcs ...Source) Source {
	return &mergeSource{stride: addrStride, srcs: srcs}
}

// heap.Interface over source indices, keyed by each source's head event.
func (m *mergeSource) Len() int { return len(m.heap) }
func (m *mergeSource) Less(a, b int) bool {
	ia, ib := m.heap[a], m.heap[b]
	ca, cb := m.bufs[ia][m.pos[ia]].Cycle, m.bufs[ib][m.pos[ib]].Cycle
	if ca != cb {
		return ca < cb
	}
	return ia < ib
}
func (m *mergeSource) Swap(a, b int) { m.heap[a], m.heap[b] = m.heap[b], m.heap[a] }
func (m *mergeSource) Push(x any)    { m.heap = append(m.heap, x.(int)) }
func (m *mergeSource) Pop() any {
	x := m.heap[len(m.heap)-1]
	m.heap = m.heap[:len(m.heap)-1]
	return x
}

// fill loads the next batch of source i, returning false when exhausted.
func (m *mergeSource) fill(i int) bool {
	n, err := m.srcs[i].Next(m.bufs[i])
	m.pos[i], m.n[i] = 0, n
	if err != nil && err != io.EOF {
		m.err = err
	}
	return n > 0
}

func (m *mergeSource) start() {
	m.init = true
	m.bufs = make([][]Event, len(m.srcs))
	m.pos = make([]int, len(m.srcs))
	m.n = make([]int, len(m.srcs))
	for i := range m.srcs {
		m.bufs[i] = make([]Event, DefaultBatch)
		if m.fill(i) {
			m.heap = append(m.heap, i)
		}
		if m.err != nil {
			return
		}
	}
	heap.Init(m)
}

// Next implements Source.
func (m *mergeSource) Next(batch []Event) (int, error) {
	if !m.init {
		m.start()
	}
	if m.err != nil {
		return 0, m.err
	}
	k := 0
	for k < len(batch) && len(m.heap) > 0 {
		i := m.heap[0]
		e := m.bufs[i][m.pos[i]]
		e.Addr += uint64(i) * m.stride
		e.Thread = uint8(i)
		batch[k] = e
		k++
		m.pos[i]++
		if m.pos[i] >= m.n[i] && !m.fill(i) {
			if m.err != nil {
				break
			}
			heap.Remove(m, 0)
			continue
		}
		heap.Fix(m, 0)
	}
	if k > 0 {
		return k, nil
	}
	if m.err != nil {
		return 0, m.err
	}
	return 0, io.EOF
}
