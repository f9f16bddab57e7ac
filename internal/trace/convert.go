package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"graphdse/internal/artifact"
)

// This file implements the trace conversion step of the workflow: extracting
// memory events from a gem5-style trace and rewriting them in the NVMain
// format. The paper (§III-D) reports that the sequential pass over its
// ~91.5M-line trace was a bottleneck and describes a parallel script that
// splits the input into user-sized chunks, converts the chunks in worker
// processes, and concatenates the per-chunk output in order, achieving
// linear speedup. ConvertParallel reproduces that design with goroutines.

// ConvertStats reports what a conversion pass did.
type ConvertStats struct {
	LinesIn   int64
	EventsOut int64
	BadLines  int64 // malformed lines dropped (permissive mode only)
	Chunks    int
	Workers   int
}

// WorkerGovernor is the degradation hook a resource governor offers the
// converter: a cap on worker counts and a verdict on whether the
// constant-memory streaming path is mandatory. *guard.Governor satisfies it;
// the interface keeps trace free of the dependency.
type WorkerGovernor interface {
	// Workers returns the permitted worker count for a named stage, possibly
	// below requested, recording the downshift.
	Workers(stage string, requested int) int
	// StreamingForced reports whether materializing paths must be avoided.
	StreamingForced() bool
}

// ConvertOptions parameterizes a conversion pass. The zero value converts
// strictly with automatic worker and chunk sizing.
type ConvertOptions struct {
	TicksPerCycle uint64
	Workers       int
	ChunkSize     int
	Text          TextOptions
	// Governor, when set, caps conversion workers under memory pressure and
	// reroutes ConvertParallelOpts through the streaming path.
	Governor WorkerGovernor
}

// checkBadLineBudget enforces the permissive-mode error budget over the
// aggregated per-chunk counts.
func (o *ConvertOptions) checkBadLineBudget(st *ConvertStats) error {
	if !o.Text.Strict && o.Text.MaxBadLines > 0 && st.BadLines > o.Text.MaxBadLines {
		return fmt.Errorf("%w: %d malformed lines, budget %d", ErrBadLineBudget, st.BadLines, o.Text.MaxBadLines)
	}
	return nil
}

// ConvertSequential converts a gem5-style stream to NVMain format one line
// at a time — the baseline the paper's parallel script is compared against.
func ConvertSequential(r io.Reader, w io.Writer, ticksPerCycle uint64) (ConvertStats, error) {
	return ConvertSequentialOpts(r, w, ConvertOptions{TicksPerCycle: ticksPerCycle, Text: TextOptions{Strict: true}})
}

// ConvertSequentialOpts is ConvertSequential with explicit options.
func ConvertSequentialOpts(r io.Reader, w io.Writer, opts ConvertOptions) (ConvertStats, error) {
	var st ConvertStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	bw := bufio.NewWriter(w)
	var buf [maxNVMainLine]byte
	for sc.Scan() {
		st.LinesIn++
		e, ok, err := parseGem5Line(sc.Bytes(), opts.TicksPerCycle)
		if err != nil {
			if opts.Text.Strict {
				return st, fmt.Errorf("line %d: %w", st.LinesIn, err)
			}
			st.BadLines++
			if berr := opts.checkBadLineBudget(&st); berr != nil {
				return st, fmt.Errorf("line %d: %w", st.LinesIn, berr)
			}
			continue
		}
		if !ok {
			continue
		}
		if _, err := bw.Write(appendNVMainLine(buf[:0], e)); err != nil {
			return st, err
		}
		st.EventsOut++
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	st.Chunks, st.Workers = 1, 1
	return st, bw.Flush()
}

// ConvertParallel converts an in-memory gem5-style trace to NVMain format
// using the paper's chunked scheme: the input is split into chunkSize-byte
// chunks aligned to line boundaries, each worker converts its chunks into a
// private buffer, and buffers are concatenated in input order so the output
// is byte-identical to the sequential conversion. workers <= 0 uses
// GOMAXPROCS; chunkSize <= 0 picks input/(8×workers) with a 64 KiB floor.
func ConvertParallel(input []byte, w io.Writer, ticksPerCycle uint64, workers, chunkSize int) (ConvertStats, error) {
	return ConvertParallelOpts(input, w, ConvertOptions{
		TicksPerCycle: ticksPerCycle, Workers: workers, ChunkSize: chunkSize,
		Text: TextOptions{Strict: true},
	})
}

// ConvertParallelOpts is ConvertParallel with explicit options. Under a
// governor reporting memory pressure it delegates to the streaming path,
// which bounds in-flight chunks instead of buffering every chunk's output at
// once.
func ConvertParallelOpts(input []byte, w io.Writer, opts ConvertOptions) (ConvertStats, error) {
	if opts.Governor != nil && opts.Governor.StreamingForced() {
		return ConvertStreamOpts(bytes.NewReader(input), w, opts)
	}
	var st ConvertStats
	workers, chunkSize := opts.Workers, opts.ChunkSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Governor != nil {
		workers = opts.Governor.Workers("convert", workers)
	}
	if chunkSize <= 0 {
		chunkSize = len(input) / (8 * workers)
		if chunkSize < 64*1024 {
			chunkSize = 64 * 1024
		}
	}
	chunks := splitChunks(input, chunkSize)
	st.Chunks = len(chunks)
	st.Workers = workers

	type result struct {
		buf   bytes.Buffer
		lines int64
		evts  int64
		bad   int64
		err   error
	}
	results := make([]result, len(chunks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for ci, chunk := range chunks {
		wg.Add(1)
		go func(ci int, chunk []byte) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := &results[ci]
			res.lines, res.evts, res.bad, res.err = convertChunk(chunk, &res.buf, opts.TicksPerCycle, opts.Text)
		}(ci, chunk)
	}
	wg.Wait()
	bw := bufio.NewWriter(w)
	for ci := range results {
		if results[ci].err != nil {
			return st, fmt.Errorf("chunk %d: %w", ci, results[ci].err)
		}
		st.LinesIn += results[ci].lines
		st.EventsOut += results[ci].evts
		st.BadLines += results[ci].bad
		if err := opts.checkBadLineBudget(&st); err != nil {
			return st, err
		}
		if _, err := bw.Write(results[ci].buf.Bytes()); err != nil {
			return st, err
		}
	}
	return st, bw.Flush()
}

// ConvertStream converts a gem5-style stream to NVMain format with the
// chunked parallel scheme, without ever materializing the input: a reader
// goroutine cuts the stream into line-aligned chunks, a bounded worker pool
// converts them, and the output is written in input order. In-flight chunks
// are capped at ~2×workers, so peak memory is O(workers × chunkSize)
// regardless of input size — the property that lets the paper's 91.5M-line
// trace convert in constant memory. Output is byte-identical to
// ConvertSequential. workers <= 0 uses GOMAXPROCS; chunkSize <= 0 defaults
// to 1 MiB.
func ConvertStream(r io.Reader, w io.Writer, ticksPerCycle uint64, workers, chunkSize int) (ConvertStats, error) {
	return ConvertStreamOpts(r, w, ConvertOptions{
		TicksPerCycle: ticksPerCycle, Workers: workers, ChunkSize: chunkSize,
		Text: TextOptions{Strict: true},
	})
}

// ConvertStreamOpts is ConvertStream with explicit options.
func ConvertStreamOpts(r io.Reader, w io.Writer, opts ConvertOptions) (ConvertStats, error) {
	var st ConvertStats
	workers, chunkSize := opts.Workers, opts.ChunkSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Governor != nil {
		// Fewer workers also shrinks the in-flight chunk bound (2×workers),
		// which is what actually caps the converter's peak memory.
		workers = opts.Governor.Workers("convert", workers)
	}
	if chunkSize <= 0 {
		chunkSize = 1 << 20
	}
	st.Workers = workers

	type result struct {
		buf   bytes.Buffer
		lines int64
		evts  int64
		bad   int64
		err   error
	}
	type job struct {
		data []byte
		done chan *result
	}
	jobs := make(chan *job)
	// order carries jobs to the writer in input order; its capacity bounds
	// the number of in-flight chunks (and thus peak memory).
	order := make(chan *job, 2*workers)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res := &result{}
				res.lines, res.evts, res.bad, res.err = convertChunk(j.data, &res.buf, opts.TicksPerCycle, opts.Text)
				j.done <- res
			}
		}()
	}

	// Reader: cut line-aligned chunks off the stream.
	var readErr error
	go func() {
		defer close(jobs)
		defer close(order)
		br := bufio.NewReaderSize(r, 64*1024)
		for {
			buf := make([]byte, chunkSize, chunkSize+256)
			n, err := io.ReadFull(br, buf)
			buf = buf[:n]
			if err == io.EOF && n == 0 {
				return
			}
			if err == nil {
				// Chunk is full: extend it to the next line boundary so no
				// line is split across chunks.
				if len(buf) > 0 && buf[len(buf)-1] != '\n' {
					tail, terr := br.ReadBytes('\n')
					buf = append(buf, tail...)
					if terr != nil && terr != io.EOF {
						readErr = terr
						return
					}
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF {
				readErr = err
				return
			}
			j := &job{data: buf, done: make(chan *result, 1)}
			order <- j // blocks when too many chunks are in flight
			jobs <- j
			if err != nil {
				return // short read: stream exhausted
			}
		}
	}()

	bw := bufio.NewWriter(w)
	var convErr error
	for j := range order {
		res := <-j.done
		if convErr != nil || res.err != nil {
			if convErr == nil {
				convErr = fmt.Errorf("chunk %d: %w", st.Chunks, res.err)
			}
			st.Chunks++
			continue // drain remaining jobs so goroutines exit
		}
		st.Chunks++
		st.LinesIn += res.lines
		st.EventsOut += res.evts
		st.BadLines += res.bad
		if err := opts.checkBadLineBudget(&st); err != nil && convErr == nil {
			convErr = err
			continue
		}
		if _, err := bw.Write(res.buf.Bytes()); err != nil && convErr == nil {
			convErr = err
		}
	}
	wg.Wait()
	if convErr != nil {
		return st, convErr
	}
	if readErr != nil {
		return st, readErr
	}
	return st, bw.Flush()
}

// ConvertFileParallel is the file-to-file variant used by cmd/traceconv. It
// streams the input through ConvertStream — the file is never loaded into
// memory, fixing the os.ReadFile bottleneck for paper-scale traces. A
// chunkSize <= 0 is derived from the file size as before (size/(8×workers)
// with a 64 KiB floor).
func ConvertFileParallel(inPath, outPath string, ticksPerCycle uint64, workers, chunkSize int) (ConvertStats, error) {
	return ConvertFileParallelOpts(inPath, outPath, ConvertOptions{
		TicksPerCycle: ticksPerCycle, Workers: workers, ChunkSize: chunkSize,
		Text: TextOptions{Strict: true},
	})
}

// ConvertFileParallelOpts is ConvertFileParallel with explicit options. The
// output file is written atomically: a failed or interrupted conversion
// leaves any existing file at outPath untouched.
func ConvertFileParallelOpts(inPath, outPath string, opts ConvertOptions) (ConvertStats, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return ConvertStats{}, err
	}
	defer in.Close()
	if opts.ChunkSize <= 0 {
		if fi, err := in.Stat(); err == nil {
			workers := opts.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			opts.ChunkSize = int(fi.Size()) / (8 * workers)
		}
		if opts.ChunkSize < 64*1024 {
			opts.ChunkSize = 64 * 1024
		}
	}
	var st ConvertStats
	err = artifact.WriteFileAtomic(outPath, 0o644, func(w io.Writer) error {
		var cerr error
		st, cerr = ConvertStreamOpts(in, w, opts)
		return cerr
	})
	return st, err
}

// splitChunks slices input into ~chunkSize pieces ending on newline
// boundaries. The final chunk takes any trailing bytes without a newline.
func splitChunks(input []byte, chunkSize int) [][]byte {
	var chunks [][]byte
	for start := 0; start < len(input); {
		end := start + chunkSize
		if end >= len(input) {
			chunks = append(chunks, input[start:])
			break
		}
		nl := bytes.IndexByte(input[end:], '\n')
		if nl < 0 {
			chunks = append(chunks, input[start:])
			break
		}
		end += nl + 1
		chunks = append(chunks, input[start:end])
		start = end
	}
	return chunks
}

// convertChunk converts the lines of one chunk into buf. In permissive mode
// malformed lines are dropped and counted; the budget is enforced by the
// caller over the aggregated counts.
func convertChunk(chunk []byte, buf *bytes.Buffer, ticksPerCycle uint64, text TextOptions) (lines, events, bad int64, err error) {
	var out [maxNVMainLine]byte
	for len(chunk) > 0 {
		var line []byte
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line = chunk[:nl]
			chunk = chunk[nl+1:]
		} else {
			line = chunk
			chunk = nil
		}
		lines++
		e, ok, perr := parseGem5Line(line, ticksPerCycle)
		if perr != nil {
			if text.Strict {
				return lines, events, bad, perr
			}
			bad++
			continue
		}
		if !ok {
			continue
		}
		buf.Write(appendNVMainLine(out[:0], e))
		events++
	}
	return lines, events, bad, nil
}
