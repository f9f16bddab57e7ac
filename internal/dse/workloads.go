package dse

import (
	"context"
	"fmt"
	"io"

	"graphdse/internal/graph"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// The paper's concluding question: "how does the graph size and the type of
// graph algorithms influence the choice of good parameters for the memory
// architectures?" This file runs that study: trace several kernels (and
// graph sizes), sweep each through the same design space, and compare the
// per-workload winners.

// WorkloadKind names an instrumented kernel.
type WorkloadKind string

// Supported workloads.
const (
	WorkloadBFS      WorkloadKind = "bfs"
	WorkloadPageRank WorkloadKind = "pagerank"
	WorkloadCC       WorkloadKind = "cc"
	WorkloadSSSP     WorkloadKind = "sssp"
	// WorkloadBFSParallel traces a 4-thread level-synchronous BFS.
	WorkloadBFSParallel WorkloadKind = "bfs-parallel"
)

// WorkloadSpec describes one workload instance for the sensitivity study.
type WorkloadSpec struct {
	Kind       WorkloadKind
	Vertices   int
	EdgeFactor int
	Seed       int64
	// PRIters applies to PageRank (default 3).
	PRIters int
}

// Label renders a short identifier.
func (w WorkloadSpec) Label() string {
	return fmt.Sprintf("%s-n%d-ef%d", w.Kind, w.Vertices, w.EdgeFactor)
}

// TraceWorkload produces the memory trace for a workload spec.
func TraceWorkload(cfg sysim.Config, w WorkloadSpec) ([]trace.Event, int, error) {
	g, err := graph.GenerateGTGraph(w.Vertices, w.EdgeFactor, w.Seed)
	if err != nil {
		return nil, 0, err
	}
	m, err := sysim.NewMachine(cfg)
	if err != nil {
		return nil, 0, err
	}
	switch w.Kind {
	case WorkloadBFS:
		_, err = sysim.TraceBFS(m, g, uint32(w.Seed%int64(w.Vertices)), true)
	case WorkloadPageRank:
		iters := w.PRIters
		if iters <= 0 {
			iters = 3
		}
		_, err = sysim.TracePageRank(m, g, iters)
	case WorkloadCC:
		_, err = sysim.TraceConnectedComponents(m, g)
	case WorkloadSSSP:
		_, err = sysim.TraceSSSP(m, g, uint32(w.Seed%int64(w.Vertices)))
	case WorkloadBFSParallel:
		_, err = sysim.TraceBFSParallel(m, g, uint32(w.Seed%int64(w.Vertices)), 4)
	default:
		err = fmt.Errorf("dse: unknown workload %q", w.Kind)
	}
	if err != nil {
		return nil, 0, err
	}
	return m.Trace(), int(m.Layout().Footprint()) / 64, nil
}

// WorkloadComparison is the study's output for one workload.
type WorkloadComparison struct {
	Spec           WorkloadSpec
	TraceEvents    int
	Recommendation Recommendations
	Figure2        []Figure2Row
}

// CompareWorkloads sweeps each workload through the design space and
// derives per-workload recommendations, answering whether the memory
// co-design choice is workload-sensitive. ctx cancels the sweep in flight.
func CompareWorkloads(ctx context.Context, cfg sysim.Config, specs []WorkloadSpec, space SpaceParams, sweep SweepOptions) ([]WorkloadComparison, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: no workloads", ErrNoData)
	}
	var out []WorkloadComparison
	for _, spec := range specs {
		events, footprint, err := TraceWorkload(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label(), err)
		}
		// Prepare once per workload; the sweep shares the decoded trace
		// across every design point.
		pt, err := memsim.Prepare(events)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label(), err)
		}
		so := sweep
		if so.FootprintLines == 0 {
			so.FootprintLines = footprint
		}
		points := EnumerateSpace(space)
		records, err := SweepPreparedContext(ctx, pt, points, so)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label(), err)
		}
		fig2 := BuildFigure2(records)
		out = append(out, WorkloadComparison{
			Spec:           spec,
			TraceEvents:    pt.Len(),
			Recommendation: Recommend(fig2, nil),
			Figure2:        fig2,
		})
	}
	return out, nil
}

// RenderWorkloadComparison writes a compact per-workload winner table.
func RenderWorkloadComparison(w io.Writer, comps []WorkloadComparison) {
	fmt.Fprintf(w, "%-22s %-10s %-14s %-10s %-12s %-12s\n",
		"workload", "events", "power", "bandwidth", "avgLatency", "totLatency")
	for _, c := range comps {
		r := c.Recommendation
		fmt.Fprintf(w, "%-22s %-10d %-14s %-10s %-12s %-12s\n",
			c.Spec.Label(), c.TraceEvents,
			fmt.Sprintf("%s@%.0fMHz", r.BestPowerType, r.BestPowerCtrlMHz),
			r.BestBandwidthType.String(),
			r.BestAvgLatencyType.String(),
			r.BestTotalLatencyType.String())
	}
}
