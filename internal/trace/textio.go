package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Gem5 text format (one line per simulated event), modeled on gem5's
// --debug-flags=MemoryAccess output:
//
//	<tick>: system.cpu.dcache: <ReadReq|WriteReq> addr=0x1a2b size=8 thread=0
//
// Compute events use other device names and are skipped by the converter.
// NVMain text format (what the memory simulator replays):
//
//	<cycle> <R|W> 0x<ADDR> <thread>

// ErrBadLineBudget is returned when a permissive text parse drops more
// malformed lines than TextOptions.MaxBadLines allows.
var ErrBadLineBudget = errors.New("trace: malformed-line budget exceeded")

// TextOptions selects how text trace parsers treat malformed lines.
//
// Strict (the zero value is permissive; the package's plain constructors
// default to strict) fails the parse on the first malformed line. Permissive
// mode drops malformed lines, records each against the report, and fails
// only once more than MaxBadLines lines have been dropped (0 means
// unlimited).
type TextOptions struct {
	Strict      bool
	MaxBadLines int64
}

// LineError records one malformed input line.
type LineError struct {
	Line int64  // 1-based line number
	Text string // offending line, truncated for the report
	Err  error
}

func (e LineError) String() string {
	return fmt.Sprintf("line %d: %v (%q)", e.Line, e.Err, e.Text)
}

// maxLineErrorSample bounds how many malformed lines a TextReport retains
// verbatim; the full count is always kept in BadLines.
const maxLineErrorSample = 8

// maxLineErrorText bounds how much of an offending line the sample quotes.
const maxLineErrorText = 80

// TextReport is the accounting a text parser keeps: how many lines it saw,
// how many events they produced, and which lines were dropped as malformed
// (permissive mode only; strict parsers fail before dropping anything).
type TextReport struct {
	Lines    int64
	Events   int64
	BadLines int64
	Sample   []LineError // first maxLineErrorSample malformed lines
}

func (r *TextReport) addBadLine(line int64, text []byte, err error) {
	r.BadLines++
	if len(r.Sample) >= maxLineErrorSample {
		return
	}
	sample := string(text)
	if len(text) > maxLineErrorText {
		sample = string(text[:maxLineErrorText]) + "…"
	}
	r.Sample = append(r.Sample, LineError{Line: line, Text: sample, Err: err})
}

// Clean reports whether the parse dropped nothing.
func (r *TextReport) Clean() bool { return r.BadLines == 0 }

// WriteGem5 renders events in the gem5-style text format. ticksPerCycle
// scales CPU cycles to simulator ticks (gem5 uses picoseconds; 500 ticks per
// cycle corresponds to a 2 GHz CPU). A destination that can Grow, such as
// a bytes.Buffer, is grown once to the text's exact length first, so it
// is not reallocated as it fills.
func WriteGem5(w io.Writer, events []Event, ticksPerCycle uint64) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(gem5TextLen(events, ticksPerCycle))
	}
	s := NewGem5Sink(w, ticksPerCycle)
	if err := s.Emit(events); err != nil {
		return err
	}
	return s.Flush()
}

// Longest lines the writers render: a 20-digit cycle or tick, a 16-digit
// address and a 3-digit thread.
const (
	maxGem5Line   = 20 + len(": system.cpu.dcache: WriteReq addr=0x") + 16 + len(" size=8 thread=") + 3 + 1
	maxNVMainLine = 20 + len(" W 0x") + 16 + 1 + 3 + 1
)

// appendGem5Line appends one event as a gem5-style line, byte-identical to
// fmt's "%d: system.cpu.dcache: %s addr=0x%x size=8 thread=%d\n" with the
// cycle scaled (modulo 2^64) to ticks.
func appendGem5Line(dst []byte, e Event, ticksPerCycle uint64) []byte {
	dst = strconv.AppendUint(dst, e.Cycle*ticksPerCycle, 10)
	if e.Op == Write {
		dst = append(dst, ": system.cpu.dcache: WriteReq addr=0x"...)
	} else {
		dst = append(dst, ": system.cpu.dcache: ReadReq addr=0x"...)
	}
	dst = strconv.AppendUint(dst, e.Addr, 16)
	dst = append(dst, " size=8 thread="...)
	dst = strconv.AppendUint(dst, uint64(e.Thread), 10)
	return append(dst, '\n')
}

// gem5TextLen is the length of the text WriteGem5 renders for events.
func gem5TextLen(events []Event, ticksPerCycle uint64) int {
	if ticksPerCycle == 0 {
		ticksPerCycle = 1
	}
	const fixed = len(": system.cpu.dcache: ReadReq addr=0x") + len(" size=8 thread=") + 1
	n := 0
	for _, e := range events {
		n += fixed + decimalLen(e.Cycle*ticksPerCycle) + max(1, (bits.Len64(e.Addr)+3)/4) + decimalLen(uint64(e.Thread))
		if e.Op == Write {
			n++ // "WriteReq" is one byte longer than "ReadReq"
		}
	}
	return n
}

// pow10 holds 10^i for every i a uint64 can reach.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// decimalLen is the number of decimal digits of v. From the bit length, t
// (1233/4096 ≈ log10 2) is that count or one less; comparing with 10^t
// settles which.
func decimalLen(v uint64) int {
	t := bits.Len64(v|1) * 1233 >> 12
	if v|1 >= pow10[t] {
		t++
	}
	return t
}

// ParseGem5Line parses one gem5-style line. Non-memory lines (device other
// than a cache/memory port, or unknown request kinds) return ok=false with
// no error, mirroring the paper's filtering of compute events.
func ParseGem5Line(line string, ticksPerCycle uint64) (Event, bool, error) {
	return parseGem5Line([]byte(line), ticksPerCycle)
}

// parseGem5Line is ParseGem5Line over the bytes of a line; it neither
// retains nor modifies them and allocates only for an error. Whitespace is
// Unicode whitespace, as strings.TrimSpace has it; numbers follow
// strconv.ParseUint at a fixed base.
func parseGem5Line(line []byte, ticksPerCycle uint64) (Event, bool, error) {
	if ticksPerCycle == 0 {
		ticksPerCycle = 1
	}
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return Event{}, false, nil
	}
	colon := bytes.IndexByte(line, ':')
	if colon < 0 {
		return Event{}, false, fmt.Errorf("%w: no tick separator in %q", ErrFormat, string(line))
	}
	tick, ok := parseDecimal(bytes.TrimSpace(line[:colon]), math.MaxUint64)
	if !ok {
		return Event{}, false, fmt.Errorf("%w: bad tick in %q", ErrFormat, string(line))
	}
	rest := line[colon+1:]
	// Only dcache/memory lines carry main-memory traffic.
	if !bytes.Contains(rest, []byte("dcache")) && !bytes.Contains(rest, []byte("mem_ctrl")) {
		return Event{}, false, nil
	}
	var op Op
	switch {
	case bytes.Contains(rest, []byte("ReadReq")):
		op = Read
	case bytes.Contains(rest, []byte("WriteReq")):
		op = Write
	default:
		return Event{}, false, nil
	}
	ai := bytes.Index(rest, []byte("addr="))
	if ai < 0 {
		return Event{}, false, fmt.Errorf("%w: no addr in %q", ErrFormat, string(line))
	}
	addr, ok := parseHex(trimPrefix0x(spaceField(rest[ai+len("addr="):])))
	if !ok {
		return Event{}, false, fmt.Errorf("%w: bad addr in %q", ErrFormat, string(line))
	}
	var thread uint64
	if ti := bytes.Index(rest, []byte("thread=")); ti >= 0 {
		if thread, ok = parseDecimal(spaceField(rest[ti+len("thread="):]), math.MaxUint8); !ok {
			return Event{}, false, fmt.Errorf("%w: bad thread in %q", ErrFormat, string(line))
		}
	}
	return Event{Cycle: tick / ticksPerCycle, Op: op, Addr: addr, Thread: uint8(thread)}, true, nil
}

// spaceField is b up to its first ASCII space.
func spaceField(b []byte) []byte {
	if sp := bytes.IndexByte(b, ' '); sp >= 0 {
		return b[:sp]
	}
	return b
}

// trimPrefix0x drops one leading "0x" (lower case only).
func trimPrefix0x(b []byte) []byte {
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		return b[2:]
	}
	return b
}

// parseDecimal is strconv.ParseUint(b, 10, ·) for a maximum of limit: at
// least one digit, nothing but digits (leading zeros allowed), no sign or
// underscore, value ≤ limit.
func parseDecimal(b []byte, limit uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	if len(b) < 20 { // 19 digits cannot overflow
		for _, c := range b {
			d := uint64(c - '0')
			if d > 9 {
				return 0, false
			}
			v = v*10 + d
		}
		return v, v <= limit
	}
	const cutoff = math.MaxUint64/10 + 1 // the least v whose v*10 overflows
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || v >= cutoff {
			return 0, false
		}
		v *= 10
		if v+d < v {
			return 0, false
		}
		v += d
	}
	return v, v <= limit
}

// hexDigit maps a byte to its hex digit value, or 0xFF.
var hexDigit = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i := 0; i < 10; i++ {
		t['0'+i] = byte(i)
	}
	for i := 0; i < 6; i++ {
		t['a'+i], t['A'+i] = byte(10+i), byte(10+i)
	}
	return t
}()

// parseHex is strconv.ParseUint(b, 16, 64): at least one hex digit of
// either case, nothing else (no "0x"), value < 2^64.
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := hexDigit[c]
		if d == 0xFF || v>>60 != 0 {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// ReadGem5 parses a full gem5-style stream, skipping non-memory lines and
// failing on the first malformed one. ReadGem5Opts selects permissive
// parsing.
func ReadGem5(r io.Reader, ticksPerCycle uint64) ([]Event, error) {
	events, _, err := ReadGem5Opts(r, ticksPerCycle, TextOptions{Strict: true})
	return events, err
}

// WriteNVMain renders events in the NVMain trace format.
func WriteNVMain(w io.Writer, events []Event) error {
	s := NewNVMainSink(w)
	if err := s.Emit(events); err != nil {
		return err
	}
	return s.Flush()
}

// appendNVMainLine appends one event as an NVMain text line, byte-identical
// to fmt's "%d %c 0x%X %d\n".
func appendNVMainLine(dst []byte, e Event) []byte {
	dst = strconv.AppendUint(dst, e.Cycle, 10)
	dst = append(dst, ' ', byte(e.Op), ' ', '0', 'x')
	dst = upperHex(dst, e.Addr)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(e.Thread), 10)
	return append(dst, '\n')
}

// upperHex appends the uppercase hex form of v to dst (matching %X).
func upperHex(dst []byte, v uint64) []byte {
	const digits = "0123456789ABCDEF"
	if v == 0 {
		return append(dst, '0')
	}
	var tmp [16]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = digits[v&0xF]
		v >>= 4
	}
	return append(dst, tmp[i:]...)
}

// ParseNVMainLine parses one NVMain-format line.
func ParseNVMainLine(line string) (Event, bool, error) {
	return parseNVMainLine([]byte(line))
}

// parseNVMainLine is ParseNVMainLine over the bytes of a line; it neither
// retains nor modifies them and allocates only for an error. Fields are
// split on Unicode whitespace, as strings.Fields splits them.
func parseNVMainLine(line []byte) (Event, bool, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return Event{}, false, nil
	}
	// The first four fields; any further ones are ignored.
	var f [4][]byte
	nf := 0
	for i := 0; nf < len(f); nf++ {
		start, end := nextField(line, i)
		if start == end {
			break
		}
		f[nf], i = line[start:end], end
	}
	if nf < 3 {
		return Event{}, false, fmt.Errorf("%w: %q", ErrFormat, string(line))
	}
	cycle, ok := parseDecimal(f[0], math.MaxUint64)
	if !ok {
		return Event{}, false, fmt.Errorf("%w: bad cycle in %q", ErrFormat, string(line))
	}
	if len(f[1]) != 1 || (f[1][0] != byte(Read) && f[1][0] != byte(Write)) {
		return Event{}, false, fmt.Errorf("%w: bad op in %q", ErrFormat, string(line))
	}
	addr, ok := parseHex(trimPrefix0x(f[2]))
	if !ok {
		return Event{}, false, fmt.Errorf("%w: bad addr in %q", ErrFormat, string(line))
	}
	var thread uint64
	if nf == 4 {
		if thread, ok = parseDecimal(f[3], math.MaxUint8); !ok {
			return Event{}, false, fmt.Errorf("%w: bad thread in %q", ErrFormat, string(line))
		}
	}
	return Event{Cycle: cycle, Op: Op(f[1][0]), Addr: addr, Thread: uint8(thread)}, true, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the bounds of the first field of b at or after i, as
// strings.Fields splits b, or start == end == len(b) if there is none.
func nextField(b []byte, i int) (start, end int) {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if w, space := runeSpace(b[i:]); space {
			i += w
		} else {
			break
		}
	}
	start = i
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if w, space := runeSpace(b[i:]); !space {
			i += w
		} else {
			break
		}
	}
	return start, i
}

// runeSpace decodes the rune b starts with as strings.Fields does (an
// invalid byte is one non-space rune) and reports its width and whether it
// is space.
func runeSpace(b []byte) (width int, space bool) {
	r, w := utf8.DecodeRune(b)
	return w, unicode.IsSpace(r)
}

// ReadNVMain parses a full NVMain-format stream, failing on the first
// malformed line. ReadNVMainOpts selects permissive parsing.
func ReadNVMain(r io.Reader) ([]Event, error) {
	events, _, err := ReadNVMainOpts(r, TextOptions{Strict: true})
	return events, err
}

// ReadNVMainOpts parses an NVMain-format stream under the given
// strict/permissive options, returning the parse accounting alongside the
// events.
func ReadNVMainOpts(r io.Reader, opts TextOptions) ([]Event, *TextReport, error) {
	src := NewNVMainSourceOpts(r, opts)
	events, err := Collect(src)
	if err != nil {
		return nil, src.Report(), err
	}
	return events, src.Report(), nil
}

// ReadGem5Opts parses a gem5-style stream under the given strict/permissive
// options, returning the parse accounting alongside the events.
func ReadGem5Opts(r io.Reader, ticksPerCycle uint64, opts TextOptions) ([]Event, *TextReport, error) {
	src := NewGem5SourceOpts(r, ticksPerCycle, opts)
	events, err := Collect(src)
	if err != nil {
		return nil, src.Report(), err
	}
	return events, src.Report(), nil
}
