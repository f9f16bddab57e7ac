package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// ticksPerCycle is gem5 ticks per CPU cycle: 2 GHz at 1 ps ticks.
const ticksPerCycle = 500

// runTraceSweep is the trace-sweep workload: the paper's by-hand route at
// the paper's scale.
// Set-up simulates the workload with sysim and writes the gem5 text with
// trace.WriteGem5. Each pass converts it with trace.ConvertStreamOpts,
// prepares the NVMain text with memsim.PrepareSource(trace.NewNVMainSource)
// and sweeps all 416 points with dse.SweepPreparedContext; nothing is
// trained inside the pass.
func runTraceSweep(ctx context.Context, r *run) error {
	seed := r.cfg.seed
	var machine *sysim.Machine
	var gem5 []byte
	var sysimS []float64
	setupN := 0
	setup, err := timeSetup(func() error {
		group := fmt.Sprintf("setup-%d", setupN)
		setupN++
		t0 := time.Now()
		m, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), paperVertices, paperEdgeFactor, seed, paperRoots, nil)
		if err != nil {
			return fmt.Errorf("set-up: sysim: %w", err)
		}
		t1 := time.Now()
		var buf bytes.Buffer
		if err := trace.WriteGem5(&buf, m.Trace(), ticksPerCycle); err != nil {
			return fmt.Errorf("set-up: write gem5 text: %w", err)
		}
		t2 := time.Now()
		if r.cfg.traced {
			r.tr.on.Store(true)
			r.tr.add(0, 0, group, "sysim.trace", t0, t1)
			r.tr.add(0, 0, group, "trace.write_gem5", t1, t2)
			r.tr.on.Store(false)
		}
		sysimS = append(sysimS, t1.Sub(t0).Seconds())
		machine, gem5 = m, buf.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	footprint := int(machine.Layout().Footprint()) / 64
	points := dse.EnumerateSpace(dse.SpaceParams{})

	var digests []string
	var firstRecords, lastRecords []dse.RunRecord
	var lastPT *memsim.PreparedTrace
	var convertS, convertMBs, prepareS, sweepS []float64
	var badLines int64
	its := r.loop(ctx, 1, true, func(i int, traced bool) (iteration, error) {
		group := fmt.Sprintf("pass-%d", i)
		root := r.tr.reserve()
		sweepID := r.tr.reserve()
		t0 := time.Now()
		var nv bytes.Buffer
		cst, err := trace.ConvertStreamOpts(bytes.NewReader(gem5), &nv, trace.ConvertOptions{
			TicksPerCycle: ticksPerCycle, Workers: r.cfg.workers,
		})
		if err != nil {
			return iteration{}, fmt.Errorf("convert: %w", err)
		}
		t1 := time.Now()
		pt, err := memsim.PrepareSource(trace.NewNVMainSource(bytes.NewReader(nv.Bytes())))
		if err != nil {
			return iteration{}, fmt.Errorf("prepare: %w", err)
		}
		t2 := time.Now()
		records, err := dse.SweepPreparedContext(ctx, pt, points, dse.SweepOptions{
			FootprintLines: footprint, Faults: paperFaults(), Workers: r.cfg.workers,
			OnRecord: func(dse.RunRecord) {
				now := time.Now()
				r.tr.add(0, sweepID, group, "dse.point_done", now, now)
			},
		})
		if err != nil {
			return iteration{}, fmt.Errorf("sweep: %w", err)
		}
		t3 := time.Now()
		d, err := recordsDigest(records)
		if err != nil {
			return iteration{}, err
		}
		digests = append(digests, d)
		badLines += cst.BadLines
		if firstRecords == nil {
			firstRecords = records
		}
		if traced {
			r.tr.add(root, 0, group, "trace-sweep", t0, t3)
			r.tr.add(0, root, group, "trace.convert", t0, t1)
			r.tr.add(0, root, group, "memsim.prepare", t1, t2)
			r.tr.add(sweepID, root, group, "dse.sweep", t2, t3)
			convertS = append(convertS, t1.Sub(t0).Seconds())
			convertMBs = append(convertMBs, float64(len(gem5))/(1<<20)/t1.Sub(t0).Seconds())
			prepareS = append(prepareS, t2.Sub(t1).Seconds())
			sweepS = append(sweepS, t3.Sub(t2).Seconds())
			lastRecords, lastPT = records, pt
		}
		return iteration{wall: t3.Sub(t0).Seconds(), points: len(records)}, nil
	})
	if len(its) == 0 {
		r.check("passes", false, "no pass completed")
		return nil
	}
	r.summarize(its)
	r.checkDigests(digests)
	r.check("bad-lines", badLines == 0, "%d malformed lines over %d passes", badLines, len(its))
	failed, _ := failureCounts(firstRecords)
	r.e2e["point_failure_ratio"] = float64(failed) / float64(len(firstRecords))

	// Cross-route check, untimed: memsim.Prepare on the in-memory events
	// must give the same records as the text route.
	ref, err := memsim.Prepare(machine.Trace())
	var refDigest string
	if err == nil {
		var refRecords []dse.RunRecord
		refRecords, err = dse.SweepPreparedContext(ctx, ref, points, dse.SweepOptions{
			FootprintLines: footprint, Faults: paperFaults(), Workers: r.cfg.workers,
		})
		if err == nil {
			refDigest, err = recordsDigest(refRecords)
		}
	}
	r.check("cross-route", err == nil && refDigest == digests[0],
		"gem5 text→ConvertStream→NVMain text %s, memsim.Prepare(events) %s (err %v)", digests[0], refDigest, err)

	r2, err := surrogateR2(ctx, firstRecords, seed)
	r.check("surrogate", err == nil, "training on the sweep's records after timing (err %v)", err)
	r.e2e["surrogate_r2_min"] = r2

	if !r.cfg.traced {
		return nil
	}
	r.layer["sysim.trace_s"] = median(sysimS)
	r.layer["sysim.events"] = float64(machine.TraceLen())
	r.layer["trace.convert_s"] = median(convertS)
	r.layer["trace.convert_mb_per_s"] = median(convertMBs)
	r.layer["trace.bad_lines"] = float64(badLines)
	r.layer["memsim.prepare_s"] = median(prepareS)
	r.layer["dse.sweep_s"] = median(sweepS)
	if lastPT != nil {
		r.partitionStats(lastPT)
		ns, err := r.replayProbe(lastPT, footprint)
		if err != nil {
			return err
		}
		f, a := failureCounts(lastRecords)
		r.layer["dse.points_failed"], r.layer["dse.attempts"] = float64(f), float64(a)
		if sw := r.layer["dse.sweep_s"]; sw > 0 {
			r.layer["dse.worker_utilisation"] = engineWork(lastRecords, ns, lastPT.Len()) / (sw * float64(r.cfg.workers))
		}
	}
	r.printShares("trace-sweep", r.tr.snapshot())
	return nil
}
