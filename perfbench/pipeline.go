package main

import (
	"context"
	"fmt"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

// workflowStages are the guard stages of dse.RunWorkflowContext, in order.
var workflowStages = []string{"workload", "trace-prep", "sweep", "invariant-gate", "dataset", "train", "recommend"}

// paperSurvivors is the reproduction of the paper's survivorship (it lost
// about 42 of 416 NVMain runs): with failure seed 1, 369 points survive on
// every workload seed.
const paperSurvivors = 369

// runPipeline is the paper-pipeline workload: one dse.RunWorkflowContext at
// paper scale per pass — system simulation, trace preparation, the
// 416-point sweep, the invariant gate, dataset, training the four Table I
// models and the recommendation. Set-up builds the same workload's trace
// with sysim and memsim.Prepare, as the reference for the cross-route check.
func runPipeline(ctx context.Context, r *run) error {
	seed := r.cfg.seed
	var machine *sysim.Machine
	var ref *memsim.PreparedTrace
	setup, err := timeSetup(func() error {
		m, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), paperVertices, paperEdgeFactor, seed, paperRoots, nil)
		if err != nil {
			return fmt.Errorf("set-up: sysim: %w", err)
		}
		pt, err := memsim.Prepare(m.Trace())
		if err != nil {
			return fmt.Errorf("set-up: prepare: %w", err)
		}
		machine, ref = m, pt
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	footprint := int(machine.Layout().Footprint()) / 64

	st := newMLStats()
	var digests []string
	var first *dse.WorkflowResult
	stageS := map[string][]float64{}
	var fits []map[string]float64
	var predictUS []float64
	var downshifts, events int
	var tracedRecords []dse.RunRecord
	its := r.loop(ctx, 1, true, func(i int, traced bool) (iteration, error) {
		group := fmt.Sprintf("pass-%d", i)
		root := r.tr.reserve()
		stageIDs := map[string]int64{}
		for _, s := range workflowStages {
			stageIDs[s] = r.tr.reserve()
		}
		opts := dse.WorkflowOptions{
			Vertices:   paperVertices,
			EdgeFactor: paperEdgeFactor,
			Seed:       seed,
			Repeats:    paperRoots,
			SplitSeed:  splitSeed,
			TestFrac:   testFrac,
			Models:     timedModels(dse.DefaultModels(seed), r.tr, st, group, stageIDs["train"]),
			Sweep: dse.SweepOptions{
				Faults:  paperFaults(),
				Workers: r.cfg.workers,
				OnRecord: func(dse.RunRecord) {
					now := time.Now()
					r.tr.add(0, stageIDs["sweep"], group, "dse.point_done", now, now)
				},
			},
		}
		t0 := time.Now()
		res, err := dse.RunWorkflowContext(ctx, opts)
		t1 := time.Now()
		if err != nil {
			return iteration{}, fmt.Errorf("workflow: %w", err)
		}
		d, err := recordsDigest(res.Records)
		if err != nil {
			return iteration{}, err
		}
		digests = append(digests, d)
		if first == nil {
			first = res
		}
		if traced {
			r.tr.add(root, 0, group, "pipeline", t0, t1)
			// The guard report carries stage durations; stages run back to
			// back from the pipeline's start, so their spans are laid end
			// to end.
			at := t0
			for _, s := range res.Supervision.Stages {
				end := at.Add(s.Duration)
				r.tr.add(stageIDs[s.Name], root, group, "guard."+s.Name, at, end)
				stageS[s.Name] = append(stageS[s.Name], s.Duration.Seconds())
				at = end
			}
			f, us := st.take()
			fits = append(fits, f)
			predictUS = append(predictUS, us)
			downshifts = len(res.Supervision.Downshifts)
			events = res.TraceEvents
			tracedRecords = res.Records
		}
		return iteration{wall: t1.Sub(t0).Seconds(), points: len(res.Records)}, nil
	})
	if len(its) == 0 {
		r.check("passes", false, "no workflow run completed")
		return nil
	}
	r.summarize(its)
	r.checkDigests(digests)
	failed, _ := failureCounts(first.Records)
	r.e2e["point_failure_ratio"] = float64(failed) / float64(len(first.Records))
	r.e2e["surrogate_r2_min"] = r2Min(first.Table1)
	r.check("survivors", first.SurvivorCount == paperSurvivors,
		"%d/%d survived, want %d", first.SurvivorCount, len(first.Records), paperSurvivors)
	r.check("best-power-nvm", first.Recommendation.BestPowerType == memsim.NVM,
		"best power type %v, paper §IV-B says NVM", first.Recommendation.BestPowerType)

	// Cross-route check, untimed: the same sweep over memsim.Prepare of
	// the set-up trace, gated like the workflow gates it.
	refRecords, err := dse.SweepPreparedContext(ctx, ref, dse.EnumerateSpace(dse.SpaceParams{}), dse.SweepOptions{
		FootprintLines: footprint, Faults: paperFaults(), Workers: r.cfg.workers,
	})
	if err == nil {
		_, err = dse.ApplyInvariantGate(refRecords, int64(ref.Len()))
	}
	var refDigest string
	if err == nil {
		refDigest, err = recordsDigest(refRecords)
	}
	r.check("cross-route", err == nil && refDigest == digests[0],
		"workflow %s, sysim→memsim.Prepare→dse.SweepPrepared %s (err %v)", digests[0], refDigest, err)

	if !r.cfg.traced {
		return nil
	}
	r.partitionStats(ref)
	ns, err := r.replayProbe(ref, footprint)
	if err != nil {
		return err
	}
	for _, s := range workflowStages {
		r.layer["guard.stage_s."+s] = median(stageS[s])
	}
	r.layer["guard.downshifts"] = float64(downshifts)
	r.layer["sysim.trace_s"] = r.layer["guard.stage_s.workload"]
	r.layer["sysim.events"] = float64(events)
	r.layer["memsim.prepare_s"] = r.layer["guard.stage_s.trace-prep"]
	r.layer["dse.sweep_s"] = r.layer["guard.stage_s.sweep"]
	if tracedRecords != nil {
		f, a := failureCounts(tracedRecords)
		r.layer["dse.points_failed"], r.layer["dse.attempts"] = float64(f), float64(a)
		if sw := r.layer["dse.sweep_s"]; sw > 0 {
			r.layer["dse.worker_utilisation"] = engineWork(tracedRecords, ns, events) / (sw * float64(r.cfg.workers))
		}
	}
	for _, m := range dse.DefaultModels(seed) {
		var xs []float64
		for _, f := range fits {
			xs = append(xs, f[m.Name])
		}
		r.layer["ml.fit_s."+m.Name] = median(xs)
	}
	r.layer["ml.predict_us"] = median(predictUS)
	r.printShares("pipeline", r.tr.snapshot())
	return nil
}
