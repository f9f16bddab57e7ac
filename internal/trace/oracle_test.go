package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The string-based text parsers and the fmt-based writers the package used
// before its byte-level text route. They are kept as oracles: the byte
// parsers must return the same (Event, ok, error text) on every line, and
// the writers the same bytes.

func oracleParseGem5Line(line string, ticksPerCycle uint64) (Event, bool, error) {
	if ticksPerCycle == 0 {
		ticksPerCycle = 1
	}
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Event{}, false, nil
	}
	colon := strings.IndexByte(line, ':')
	if colon < 0 {
		return Event{}, false, fmt.Errorf("%w: no tick separator in %q", ErrFormat, line)
	}
	tick, err := strconv.ParseUint(strings.TrimSpace(line[:colon]), 10, 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("%w: bad tick in %q", ErrFormat, line)
	}
	rest := line[colon+1:]
	if !strings.Contains(rest, "dcache") && !strings.Contains(rest, "mem_ctrl") {
		return Event{}, false, nil
	}
	var op Op
	switch {
	case strings.Contains(rest, "ReadReq"):
		op = Read
	case strings.Contains(rest, "WriteReq"):
		op = Write
	default:
		return Event{}, false, nil
	}
	ai := strings.Index(rest, "addr=")
	if ai < 0 {
		return Event{}, false, fmt.Errorf("%w: no addr in %q", ErrFormat, line)
	}
	addrField := rest[ai+len("addr="):]
	if sp := strings.IndexByte(addrField, ' '); sp >= 0 {
		addrField = addrField[:sp]
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(addrField, "0x"), 16, 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("%w: bad addr in %q", ErrFormat, line)
	}
	var thread uint64
	if ti := strings.Index(rest, "thread="); ti >= 0 {
		tf := rest[ti+len("thread="):]
		if sp := strings.IndexByte(tf, ' '); sp >= 0 {
			tf = tf[:sp]
		}
		thread, err = strconv.ParseUint(tf, 10, 8)
		if err != nil {
			return Event{}, false, fmt.Errorf("%w: bad thread in %q", ErrFormat, line)
		}
	}
	return Event{Cycle: tick / ticksPerCycle, Op: op, Addr: addr, Thread: uint8(thread)}, true, nil
}

func oracleParseNVMainLine(line string) (Event, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Event{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Event{}, false, fmt.Errorf("%w: %q", ErrFormat, line)
	}
	cycle, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("%w: bad cycle in %q", ErrFormat, line)
	}
	if len(fields[1]) != 1 || (fields[1][0] != byte(Read) && fields[1][0] != byte(Write)) {
		return Event{}, false, fmt.Errorf("%w: bad op in %q", ErrFormat, line)
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("%w: bad addr in %q", ErrFormat, line)
	}
	var thread uint64
	if len(fields) >= 4 {
		thread, err = strconv.ParseUint(fields[3], 10, 8)
		if err != nil {
			return Event{}, false, fmt.Errorf("%w: bad thread in %q", ErrFormat, line)
		}
	}
	return Event{Cycle: cycle, Op: Op(fields[1][0]), Addr: addr, Thread: uint8(thread)}, true, nil
}

func oracleGem5Line(e Event, ticksPerCycle uint64) string {
	req := "ReadReq"
	if e.Op == Write {
		req = "WriteReq"
	}
	return fmt.Sprintf("%d: system.cpu.dcache: %s addr=0x%x size=8 thread=%d\n",
		e.Cycle*ticksPerCycle, req, e.Addr, e.Thread)
}

func oracleNVMainLine(e Event) string {
	return fmt.Sprintf("%d %c 0x%X %d\n", e.Cycle, e.Op, e.Addr, e.Thread)
}

// parseOutcome is a parse result with its error reduced to its text.
type parseOutcome struct {
	e   Event
	ok  bool
	err string
}

func outcome(e Event, ok bool, err error) parseOutcome {
	o := parseOutcome{e: e, ok: ok}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// checkGem5AgainstOracle fails t unless ParseGem5Line and the byte parser
// both agree with the oracle on line.
func checkGem5AgainstOracle(t *testing.T, line string, ticksPerCycle uint64) {
	t.Helper()
	want := outcome(oracleParseGem5Line(line, ticksPerCycle))
	if got := outcome(ParseGem5Line(line, ticksPerCycle)); got != want {
		t.Fatalf("ParseGem5Line(%q, %d) = %+v, oracle %+v", line, ticksPerCycle, got, want)
	}
	if got := outcome(parseGem5Line([]byte(line), ticksPerCycle)); got != want {
		t.Fatalf("parseGem5Line(%q, %d) = %+v, oracle %+v", line, ticksPerCycle, got, want)
	}
}

// checkNVMainAgainstOracle is checkGem5AgainstOracle for NVMain lines.
func checkNVMainAgainstOracle(t *testing.T, line string) {
	t.Helper()
	want := outcome(oracleParseNVMainLine(line))
	if got := outcome(ParseNVMainLine(line)); got != want {
		t.Fatalf("ParseNVMainLine(%q) = %+v, oracle %+v", line, got, want)
	}
	if got := outcome(parseNVMainLine([]byte(line))); got != want {
		t.Fatalf("parseNVMainLine(%q) = %+v, oracle %+v", line, got, want)
	}
}

// TestTextParsersMatchOracle covers the edges of whitespace and number
// syntax the byte parsers must reproduce exactly: Unicode spaces (U+0085 and
// U+00A0 are two bytes ≥ 0x80, U+3000 three), invalid UTF-8, leading zeros,
// prefixes and signs ParseUint rejects at a fixed base, and range limits.
func TestTextParsersMatchOracle(t *testing.T) {
	nvmain := []string{
		"100 R 0x400 0", "0 W 0x0 3", "  42 W 0xDEADBEEF 1  ", "1 R 0xA", "1 R 0xA 2 extra fields",
		"18446744073709551615 R 0xFFFFFFFFFFFFFFFF 255",
		"18446744073709551616 R 0x1 0", "99999999999999999999 R 0x1 0",
		"1 R 0x10000000000000000 0", "1 R 0x00000000000000000000000001 0", "1 R 0000000000000000000000ff 0",
		"000000000000000000000000000007 W 0x1 0000000000000000255",
		"1 R 0X10 0", "1 R 0x 0", "1 R 0x0x1 0", "1 R x1 0", "+1 R 0x1 0", "-1 R 0x1 0",
		"1_0 R 0x1 0", "1 R 0x1_0 0", "1 R 0x1 256", "1 R 0x1 +1", "1 R 0x1 -0", "1 r 0x1 0", "1 RW 0x1 0",
		"1 R 0x1 2", " 1 R 0x1 2 ", "1\u0085R\u00850x1", "　1 W 0x2 3　",
		"1 R 0x1　", "1 R  0x1  2", "1\tR\v0x1\f3\r", "1 R 0x1 \xe3\xc2\xa0",
		"1 R 0x1\xc2\xa0", "\xc2\xa0# comment", "1 R \xff 0", "\xff1 R 0x1 0", "1 R 0x1 2\xc2",
		"1 R 0x1 2\x85", "1 \xc2\x85 R 0x1", "1 R \xe3\x80 0x1", "\xe3\x80\x80", "\xc2", "#", "# 1 R 0x1",
		"", "   ", "1", "1 R", "x R 0x1", "1 Q 0x1", "1 R zz", "1 R 0x1 xx", "1 R 0x1 2 \x00",
	}
	for _, line := range nvmain {
		checkNVMainAgainstOracle(t, line)
	}
	gem5 := []string{
		"500: system.cpu.dcache: ReadReq addr=0x4000 size=8 thread=2",
		"1000: system.cpu.dcache: WriteReq addr=0xdeadbeef size=8 thread=0",
		"1500: system.mem_ctrl: ReadReq addr=0x80 size=64",
		"2000: system.cpu.icache: ReadReq addr=0x1000 size=8",
		"2500: system.cpu.dcache: CleanEvict addr=0x40 size=8",
		"no colon here", "abc: system.cpu.dcache: ReadReq addr=0x40", ": dcache ReadReq addr=0x1",
		"300: system.cpu.dcache: ReadReq addr=0xqq size=8", "12: system.cpu.dcache: ReadReq size=8",
		"18446744073709551615: dcache ReadReq addr=0xFFFFFFFFFFFFFFFF thread=255",
		"18446744073709551616: dcache ReadReq addr=0x1", "+1: dcache ReadReq addr=0x1", "1_0: dcache ReadReq addr=0x1",
		"1: dcache ReadReq addr=0X1", "1: dcache ReadReq addr=0x", "1: dcache ReadReq addr=", "1: dcache ReadReq addr=1f",
		"1: dcache ReadReq addr=0x00000000000000000000abc thread=0000000000000000000000000000003",
		"1: dcache ReadReq addr=0x10000000000000000", "1: dcache ReadReq addr=0x1 thread=256",
		"1: dcache ReadReq addr=0x1 thread=+1", "1: dcache ReadReq addr=0x1 thread=", "1: dcache ReadReq addr=0x1\tthread=1",
		"1: dcache ReadReq addr=0x1 size=8 thread=1\tx", "1: dcache WriteReq ReadReq addr=0x1", "1: ReadReq addr=0x1 mem_ctrl",
		"1: dcache WriteReq thread=7 addr=0x9", "1: dcache ReadReq thread=7 addr=0x9 thread=8", "1: dcache ReadReq addr=0xthread=1",
		"1: dcachReadReq", "1: dcache: Read Req addr=0x1", "1: dcache ReadReq addr=0x1 addr=0xzz",
		" 1 : dcache ReadReq addr=0x1 ", "1　: dcache ReadReq addr=0x1 thread=2　",
		"\u0085500: system.cpu.dcache: ReadReq addr=0x40 size=8 thread=1\u0085",
		"1: dcache ReadReq addr=0x1 size=8", "1: dcache ReadReq addr=0x1 thread=2\xe3\xc2\xa0",
		"\xff: dcache ReadReq addr=0x1", "1: dcache ReadReq addr=\xff", "1\xc2: dcache ReadReq addr=0x1",
		"#1: dcache ReadReq addr=0x1", " # x", "\xc2\xa0", "", "1:", "1: dcache", "1: mem_ctrl WriteReq",
	}
	for _, line := range gem5 {
		for _, ticks := range []uint64{0, 1, 3, 500, math.MaxUint64} {
			checkGem5AgainstOracle(t, line, ticks)
		}
	}
}

// randomTextLine draws a line from tokens that exercise both formats'
// syntax, separated by ASCII and Unicode whitespace, sometimes corrupted.
func randomTextLine(rng *rand.Rand) string {
	tokens := []string{
		"0", "1", "42", "255", "256", "007", "18446744073709551615", "18446744073709551616", "+1", "1_0",
		"R", "W", "X", "0x", "0x1f", "0XAB", "0xdeadbeef", "0x00000000000000000001", "0x10000000000000000",
		"500:", ":", "system.cpu.dcache:", "system.mem_ctrl:", "dcache", "icache", "ReadReq", "WriteReq",
		"addr=0x40", "addr=0xzz", "addr=", "addr=40", "size=8", "thread=3", "thread=256", "thread=",
		"#", "\xff", "\xc2", " ", "\u0085", "　", "é",
	}
	seps := []string{" ", " ", " ", "  ", "\t", " ", "\u0085", "　", "\r", ""}
	var b strings.Builder
	n := rng.Intn(8)
	for i := 0; i < n; i++ {
		b.WriteString(seps[rng.Intn(len(seps))])
		b.WriteString(tokens[rng.Intn(len(tokens))])
	}
	if rng.Intn(3) == 0 {
		b.WriteString(seps[rng.Intn(len(seps))])
	}
	return b.String()
}

// TestTextParsersMatchOracleRandom compares the parsers with their oracles
// on random lines, half of them well-formed renderings of random events.
func TestTextParsersMatchOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	events := randomEvents(2000, 9)
	for i := 0; i < 20000; i++ {
		line := randomTextLine(rng)
		if i%2 == 0 {
			e := events[i/2%len(events)]
			e.Addr |= rng.Uint64() >> uint(rng.Intn(64))
			checkNVMainAgainstOracle(t, strings.TrimSuffix(oracleNVMainLine(e), "\n"))
			checkGem5AgainstOracle(t, strings.TrimSuffix(oracleGem5Line(e, 500), "\n"), 500)
		}
		checkNVMainAgainstOracle(t, line)
		checkGem5AgainstOracle(t, line, 500)
	}
}

// writeSizes records the size of every Write it receives.
type writeSizes struct {
	buf   bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// extremeEvents are random events plus the edges of every field: a cycle
// whose tick product wraps around 2^64, thread 255 and address 0.
func extremeEvents() []Event {
	events := randomEvents(3000, 17)
	rng := rand.New(rand.NewSource(5))
	for i := range events {
		if i%3 == 0 {
			events[i].Addr = rng.Uint64() >> uint(rng.Intn(64))
			events[i].Thread = uint8(rng.Intn(256))
		}
	}
	return append(events,
		Event{Cycle: math.MaxUint64, Op: Write, Addr: math.MaxUint64, Thread: 255},
		Event{Cycle: math.MaxUint64 / 500, Op: Read, Addr: 0, Thread: 0},
		Event{Cycle: math.MaxUint64/500 + 1, Op: Write, Addr: 1 << 63, Thread: 255},
		Event{Cycle: 0, Op: Read, Addr: 0, Thread: 255},
	)
}

// TestTextWritersMatchFmt requires the gem5 and NVMain writers, slice and
// sink forms alike, to produce the bytes fmt produced, in the same 4 KiB
// writes to the destination.
func TestTextWritersMatchFmt(t *testing.T) {
	events := extremeEvents()
	for _, ticks := range []uint64{0, 1, 500, math.MaxUint64} {
		var want strings.Builder
		for _, e := range events {
			want.WriteString(oracleGem5Line(e, max(ticks, 1)))
		}
		var w writeSizes
		if err := WriteGem5(&w, events, ticks); err != nil {
			t.Fatal(err)
		}
		if w.buf.String() != want.String() {
			t.Fatalf("WriteGem5 at %d ticks/cycle differs from fmt", ticks)
		}
		if n := gem5TextLen(events, ticks); n != want.Len() {
			t.Fatalf("gem5TextLen at %d ticks/cycle = %d, text is %d bytes", ticks, n, want.Len())
		}
		checkWriteSizes(t, "WriteGem5", w.sizes, want.Len())
		var ws writeSizes
		sink := NewGem5Sink(&ws, ticks)
		for i := 0; i < len(events); i += 7 {
			if err := sink.Emit(events[i:min(i+7, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if ws.buf.String() != want.String() {
			t.Fatalf("Gem5Sink at %d ticks/cycle differs from fmt", ticks)
		}
		checkWriteSizes(t, "Gem5Sink", ws.sizes, want.Len())
	}

	var want strings.Builder
	for _, e := range events {
		want.WriteString(oracleNVMainLine(e))
	}
	var w writeSizes
	if err := WriteNVMain(&w, events); err != nil {
		t.Fatal(err)
	}
	if w.buf.String() != want.String() {
		t.Fatal("WriteNVMain differs from fmt")
	}
	checkWriteSizes(t, "WriteNVMain", w.sizes, want.Len())
}

// checkWriteSizes requires full bufio-sized writes followed by one
// remainder, which is what the writers' bufio.Writer passed on before.
func checkWriteSizes(t *testing.T, name string, sizes []int, total int) {
	t.Helper()
	const chunk = 4096
	for i, n := range sizes {
		want := chunk
		if i == len(sizes)-1 {
			want = total - chunk*(len(sizes)-1)
		}
		if n != want {
			t.Fatalf("%s: write %d of %d is %d bytes, want %d", name, i, len(sizes), n, want)
		}
	}
}

// TestTextRouteAllocations pins the no-per-line-allocation contract: the
// cost of writing or parsing a trace must not grow with its line count.
func TestTextRouteAllocations(t *testing.T) {
	events := randomEvents(5000, 3)
	var gem5, nv bytes.Buffer
	if err := WriteGem5(&gem5, events, 500); err != nil {
		t.Fatal(err)
	}
	if err := WriteNVMain(&nv, events); err != nil {
		t.Fatal(err)
	}
	sink := NewGem5Sink(io.Discard, 500)
	nvSink := NewNVMainSink(io.Discard)
	gem5Lines := bytes.Split(bytes.TrimSuffix(gem5.Bytes(), []byte("\n")), []byte("\n"))
	nvLines := bytes.Split(bytes.TrimSuffix(nv.Bytes(), []byte("\n")), []byte("\n"))
	var out bytes.Buffer
	out.Grow(nv.Len())
	for name, fn := range map[string]func(){
		"Gem5Sink.Emit":   func() { sink.Emit(events) },
		"NVMainSink.Emit": func() { nvSink.Emit(events) },
		"parseGem5Line": func() {
			for _, l := range gem5Lines {
				parseGem5Line(l, 500)
			}
		},
		"parseNVMainLine": func() {
			for _, l := range nvLines {
				parseNVMainLine(l)
			}
		},
		"convertChunk": func() {
			out.Reset()
			convertChunk(gem5.Bytes(), &out, 500, TextOptions{Strict: true})
		},
	} {
		if a := testing.AllocsPerRun(3, fn); a != 0 {
			t.Errorf("%s over %d lines: %v allocations, want 0", name, len(events), a)
		}
	}
}

// TestDecimalLen checks the digit count gem5TextLen sizes buffers with at
// every power of ten and its neighbours.
func TestDecimalLen(t *testing.T) {
	vals := []uint64{math.MaxUint64}
	for _, p := range pow10 {
		vals = append(vals, p-1, p, p+1)
	}
	for _, v := range vals {
		if got, want := decimalLen(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
}
