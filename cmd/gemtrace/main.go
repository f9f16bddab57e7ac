// Command gemtrace is the gem5 stand-in of the workflow: it runs an
// instrumented graph kernel (BFS, PageRank or connected components) on the
// atomic-CPU system simulator and writes the resulting main-memory trace in
// gem5, NVMain, or binary format.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"graphdse/internal/artifact"
	"graphdse/internal/graph"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

func main() {
	var (
		kernel     = flag.String("kernel", "bfs", "workload: bfs, bfs-parallel, pagerank, cc, or sssp")
		vertices   = flag.Int("n", 1024, "graph vertices (paper: 1024)")
		edgeFactor = flag.Int("ef", 16, "edges per vertex (paper: 16)")
		seed       = flag.Int64("seed", 42, "graph + root seed")
		repeats    = flag.Int("repeats", 1, "BFS roots to trace")
		prIters    = flag.Int("pr-iters", 5, "PageRank iterations")
		threads    = flag.Int("threads", 4, "hardware threads for bfs-parallel")
		caches     = flag.Bool("caches", false, "enable the L1/L2 hierarchy (default off, like gem5 SE atomic)")
		format     = flag.String("format", "nvmain", "output format: gem5, nvmain, or binary")
		ticks      = flag.Uint64("ticks-per-cycle", 500, "gem5 ticks per CPU cycle (500 = 2 GHz at 1ps ticks)")
		out        = flag.String("o", "-", "output path, - for stdout")
	)
	flag.Parse()

	cfg := sysim.DefaultConfig()
	cfg.CachesEnabled = *caches

	var machine *sysim.Machine
	var res *sysim.WorkloadResult
	var err error
	switch *kernel {
	case "bfs":
		machine, res, err = sysim.PaperWorkloadTraceContext(context.Background(), cfg, *vertices, *edgeFactor, *seed, *repeats, nil)
	case "pagerank", "cc", "sssp", "bfs-parallel":
		var g *graph.CSR
		g, err = graph.GenerateGTGraph(*vertices, *edgeFactor, *seed)
		if err != nil {
			break
		}
		machine, err = sysim.NewMachine(cfg)
		if err != nil {
			break
		}
		switch *kernel {
		case "pagerank":
			res, err = sysim.TracePageRank(machine, g, *prIters)
		case "cc":
			res, err = sysim.TraceConnectedComponents(machine, g)
		case "sssp":
			res, err = sysim.TraceSSSP(machine, g, uint32(*seed%int64(*vertices)))
		case "bfs-parallel":
			res, err = sysim.TraceBFSParallel(machine, g, uint32(*seed%int64(*vertices)), *threads)
		}
	default:
		err = fmt.Errorf("unknown kernel %q", *kernel)
	}
	if err != nil {
		fatal(err)
	}

	events := machine.Trace()
	write := func(w io.Writer) error {
		switch *format {
		case "gem5":
			return trace.WriteGem5(w, events, *ticks)
		case "nvmain":
			return trace.WriteNVMain(w, events)
		case "binary":
			return trace.WriteBinary(w, events)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	if *out == "-" {
		err = write(os.Stdout)
	} else {
		// Atomic: a crash mid-write leaves the old file (or nothing), never
		// a torn trace.
		err = artifact.WriteFileAtomic(*out, 0o644, write)
	}
	if err != nil {
		fatal(err)
	}
	st := machine.Stats()
	fmt.Fprintf(os.Stderr, "kernel=%s events=%d reads=%d writes=%d instructions=%d cycles=%d visited=%d iterations=%d\n",
		*kernel, len(events), st.MemReads, st.MemWrites, st.Instructions, machine.Cycle(), res.Visited, res.Iterations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gemtrace:", err)
	os.Exit(1)
}
