package dsed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
	"graphdse/internal/memsim"
)

// reuseDaemon runs jobs one at a time over one spool and one trace cache,
// the way a one-worker fleet would, and keeps the scheduler's log lines.
type reuseDaemon struct {
	t     *testing.T
	q     *Queue
	cache *TraceCache
	s     *Scheduler

	mu   sync.Mutex
	logs []string // guarded by mu
}

func newReuseDaemon(t *testing.T, cacheEntries int) *reuseDaemon {
	t.Helper()
	return newReuseDaemonOpts(t, cacheEntries, QueueOptions{})
}

func newReuseDaemonOpts(t *testing.T, cacheEntries int, qopts QueueOptions) *reuseDaemon {
	t.Helper()
	q, err := OpenQueue(t.TempDir(), qopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	d := &reuseDaemon{t: t, q: q, cache: NewTraceCache(cacheEntries)}
	d.s = NewScheduler(q, d.cache, nil, SchedulerOptions{
		JobWorkers:   1,
		SweepWorkers: 2,
		Logf: func(format string, args ...any) {
			d.mu.Lock()
			d.logs = append(d.logs, fmt.Sprintf(format, args...))
			d.mu.Unlock()
		},
	})
	return d
}

// run drives one job to a terminal state and returns its result.
func (d *reuseDaemon) run(spec JobSpec) []byte {
	d.t.Helper()
	if _, _, err := d.q.Submit(spec); err != nil {
		d.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	rec, err := d.q.Next(ctx)
	cancel()
	if err != nil {
		d.t.Fatal(err)
	}
	d.s.runJob(context.Background(), rec)
	if got, err := d.q.Get(spec.ID); err != nil || got.State != StateDone {
		d.t.Fatalf("job %s: %+v err=%v", spec.ID, got, err)
	}
	return jobResult(d.t, d.q, spec.ID)
}

// logged reports whether the scheduler logged line.
func (d *reuseDaemon) logged(line string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.logs {
		if l == line {
			return true
		}
	}
	return false
}

// replays counts the replays run on cached traces: every replay looks up
// its trace's partition once.
func replays(st CacheStats) int64 { return st.PartitionHits + st.PartitionMisses }

// sameResult compares two sealed results byte for byte apart from the job
// ID.
func sameResult(t *testing.T, a, b []byte) bool {
	t.Helper()
	strip := func(data []byte) []byte {
		var res JobResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		res.ID = ""
		out, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return bytes.Equal(strip(a), strip(b))
}

// decodeResult decodes a sealed result's records over space.
func decodeResult(t *testing.T, data []byte, space dse.SpaceParams) []dse.RunRecord {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	recs, err := dse.DecodeCanonicalRecords(res.Records, dse.EnumerateSpace(space))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// cellSpace is one CPU × controller × channels cell: 13 points, 7 of them
// DRAM or NVM and 6 hybrid.
func cellSpace(fractions ...float64) *dse.SpaceParams {
	return &dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    fractions,
	}
}

func reuseSpec(id string, space *dse.SpaceParams) JobSpec {
	spec := workloadSpec(id, "")
	spec.Space = space
	return spec
}

// TestReuseIdenticalSpec: a second job with the same spec under a new ID
// replays nothing, takes every healthy point from the first job's records,
// and seals the records the first job and a fresh daemon seal.
func TestReuseIdenticalSpec(t *testing.T) {
	d := newReuseDaemon(t, 2)
	first := d.run(reuseSpec("first", smallSpace()))
	st1 := d.cache.Stats()
	if replays(st1) == 0 || st1.RecordHits != 0 {
		t.Fatalf("first job on a fresh daemon: %+v", st1)
	}
	healthy := 0
	for _, r := range decodeResult(t, first, *smallSpace()) {
		if !r.Failed {
			healthy++
		}
	}
	if healthy == 0 || int64(st1.RecordEntries) != int64(healthy) {
		t.Fatalf("%d healthy points, %d records kept", healthy, st1.RecordEntries)
	}

	second := d.run(reuseSpec("second", smallSpace()))
	st2 := d.cache.Stats()
	if n := replays(st2) - replays(st1); n != 0 {
		t.Fatalf("second job replayed %d points", n)
	}
	if st2.RecordHits != int64(healthy) {
		t.Fatalf("record hits %d, want %d healthy points", st2.RecordHits, healthy)
	}
	total := len(dse.EnumerateSpace(*smallSpace()))
	if line := fmt.Sprintf("dsed: job second: reused %d of %d points", healthy, total); !d.logged(line) {
		t.Fatalf("missing log line %q", line)
	}
	if !sameResult(t, first, second) {
		t.Fatalf("reused result differs from the first job's:\n%s\nvs\n%s", second, first)
	}
	fresh := newReuseDaemon(t, 2).run(reuseSpec("second", smallSpace()))
	if !bytes.Equal(second, fresh) {
		t.Fatalf("reused result differs from a fresh daemon's:\n%s\nvs\n%s", second, fresh)
	}
}

// TestReuseOverlap: after a one-cell job, a job over a space that contains
// the cell reuses exactly the cell's points and sweeps the rest.
func TestReuseOverlap(t *testing.T) {
	d := newReuseDaemon(t, 2)
	cell := cellSpace(0.25, 0.5, 0.75)
	d.run(reuseSpec("cell", cell))
	st1 := d.cache.Stats()

	space := smallSpace()
	got := d.run(reuseSpec("space", space))
	st2 := d.cache.Stats()
	overlap := len(dse.EnumerateSpace(*cell))
	total := len(dse.EnumerateSpace(*space))
	if hits := st2.RecordHits - st1.RecordHits; hits != int64(overlap) {
		t.Fatalf("reused %d points, want the %d-point overlap", hits, overlap)
	}
	if n := replays(st2) - replays(st1); n != int64(total-overlap) {
		t.Fatalf("replayed %d points, want %d", n, total-overlap)
	}
	if line := fmt.Sprintf("dsed: job space: reused %d of %d points", overlap, total); !d.logged(line) {
		t.Fatalf("missing log line %q", line)
	}
	if fresh := newReuseDaemon(t, 2).run(reuseSpec("space", space)); !bytes.Equal(got, fresh) {
		t.Fatalf("result differs from a fresh daemon's:\n%s\nvs\n%s", got, fresh)
	}
}

// TestReuseFaultSpec: records from a fault-free job do not mask the faults
// a later job injects. Its injected points still fail, and it seals what a
// fresh daemon seals.
func TestReuseFaultSpec(t *testing.T) {
	d := newReuseDaemon(t, 2)
	d.run(reuseSpec("clean", smallSpace()))
	st1 := d.cache.Stats()

	faulty := reuseSpec("faulty", smallSpace())
	faulty.FailureRate = 0.3
	faulty.FailureSeed = 11
	inj := dse.PaperFaults(faulty.FailureRate, faulty.FailureSeed)
	points := dse.EnumerateSpace(*faulty.Space)
	injected := map[dse.DesignPoint]bool{}
	for _, p := range points {
		if inj.Decide(p, 1) != dse.FaultNone {
			injected[p] = true
		}
	}
	if len(injected) == 0 || len(injected) == len(points) {
		t.Fatalf("failure seed injects %d of %d points; pick one that splits the space", len(injected), len(points))
	}

	got := d.run(faulty)
	st2 := d.cache.Stats()
	for _, r := range decodeResult(t, got, *faulty.Space) {
		if injected[r.Point] != r.Failed {
			t.Fatalf("point %s: failed=%v, injected=%v", r.Point.ID(), r.Failed, injected[r.Point])
		}
	}
	healthy := len(points) - len(injected)
	if hits := st2.RecordHits - st1.RecordHits; hits != int64(healthy) {
		t.Fatalf("reused %d points, want the %d healthy ones", hits, healthy)
	}
	if fresh := newReuseDaemon(t, 2).run(faulty); !bytes.Equal(got, fresh) {
		t.Fatalf("result differs from a fresh daemon's:\n%s\nvs\n%s", got, fresh)
	}
}

// TestReuseFractionKey: records are keyed by the whole design point, so
// hybrid points whose DRAM fractions share a two-decimal ID (0.0625 and
// 0.06) never share a record; the cell's DRAM and NVM points do.
func TestReuseFractionKey(t *testing.T) {
	d := newReuseDaemon(t, 2)
	d.run(reuseSpec("f0625", cellSpace(0.0625)))
	st1 := d.cache.Stats()
	got := d.run(reuseSpec("f06", cellSpace(0.06)))
	st2 := d.cache.Stats()

	var hybrid, plain int
	for _, p := range dse.EnumerateSpace(*cellSpace(0.06)) {
		if p.Type == memsim.Hybrid {
			hybrid++
		} else {
			plain++
		}
	}
	if hits := st2.RecordHits - st1.RecordHits; hits != int64(plain) {
		t.Fatalf("reused %d points, want only the %d DRAM and NVM points", hits, plain)
	}
	if misses := st2.RecordMisses - st1.RecordMisses; misses != int64(hybrid) {
		t.Fatalf("%d record misses, want the %d hybrid points", misses, hybrid)
	}
	if fresh := newReuseDaemon(t, 2).run(reuseSpec("f06", cellSpace(0.06))); !bytes.Equal(got, fresh) {
		t.Fatalf("result differs from a fresh daemon's:\n%s\nvs\n%s", got, fresh)
	}
}

// TestReuseEvictionAndBound: evicting a trace drops its records, and a
// trace never keeps more than maxPointRecords of them.
func TestReuseEvictionAndBound(t *testing.T) {
	d := newReuseDaemon(t, 1)
	d.run(reuseSpec("a", cellSpace()))
	if st := d.cache.Stats(); st.RecordEntries == 0 {
		t.Fatalf("no records kept: %+v", st)
	}
	other := reuseSpec("b", cellSpace())
	other.Workload.Seed++
	d.run(other) // evicts the first trace
	st1 := d.cache.Stats()
	if st1.Entries != 1 || st1.RecordHits != 0 || st1.RecordEntries > len(dse.EnumerateSpace(*cellSpace())) {
		t.Fatalf("after eviction: %+v", st1)
	}
	d.run(reuseSpec("c", cellSpace()))
	if st := d.cache.Stats(); st.RecordHits != 0 {
		t.Fatalf("records outlived their evicted trace: %+v", st)
	}

	var pr pointRecords
	res := &memsim.Result{}
	for i := 0; i < maxPointRecords+10; i++ {
		pr.store(dse.RunRecord{Point: dse.DesignPoint{TRCD: uint64(i)}, Result: res, Attempts: 1})
	}
	if n, _, _ := pr.stats(); n != maxPointRecords {
		t.Fatalf("%d records kept, cap %d", n, maxPointRecords)
	}
	var unfit pointRecords
	p := dse.DesignPoint{TRCD: 1}
	unfit.store(dse.RunRecord{Point: p, Failed: true, Attempts: 1})
	unfit.store(dse.RunRecord{Point: p, Attempts: 1})
	unfit.store(dse.RunRecord{Point: p, Result: res, Attempts: 2})
	if n, _, _ := unfit.stats(); n != 0 {
		t.Fatalf("kept %d failed, empty or retried records", n)
	}
}

// TestReuseConcurrentWorkers: two job workers running identical specs on
// one trace at once both seal a fresh daemon's records.
func TestReuseConcurrentWorkers(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	cache := NewTraceCache(2)
	s := NewScheduler(q, cache, nil, SchedulerOptions{JobWorkers: 2, SweepWorkers: 2})
	for i, id := range []string{"left", "right"} {
		spec := reuseSpec(id, smallSpace())
		spec.Tenant = fmt.Sprint("t", i)
		if _, _, err := q.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Run(ctx)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		l, _ := q.Get("left")
		r, _ := q.Get("right")
		if l.State.Terminal() && r.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never finished: %+v, %+v", l, r)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	fresh := newReuseDaemon(t, 2).run(reuseSpec("fresh", smallSpace()))
	for _, id := range []string{"left", "right"} {
		data := jobResult(t, q, id)
		if !sameResult(t, data, fresh) {
			t.Fatalf("job %s differs from a fresh daemon's:\n%s\nvs\n%s", id, data, fresh)
		}
	}
	// Each job looked every point up once, hit or miss.
	st := cache.Stats()
	if n := st.RecordHits + st.RecordMisses; n != int64(2*len(dse.EnumerateSpace(*smallSpace()))) {
		t.Fatalf("%d record lookups: %+v", n, st)
	}
}

// TestReuseObservesCancel: a job taking its points from records still
// stops at point granularity when cancelled, and journals only the points
// it took before the cancel.
func TestReuseObservesCancel(t *testing.T) {
	d := newReuseDaemon(t, 2)
	d.run(reuseSpec("warm", smallSpace()))
	st1 := d.cache.Stats()

	spec := reuseSpec("paced", smallSpace())
	spec.PointDelayMS = 20
	if _, _, err := d.q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, err := d.q.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		d.s.runJob(context.Background(), rec)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := d.q.Get(spec.ID)
		if got.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never took 3 points: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.s.Cancel(spec.ID); err != nil {
		t.Fatal(err)
	}
	<-finished
	got, err := d.q.Get(spec.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancelled job: %+v err=%v", got, err)
	}
	total := len(dse.EnumerateSpace(*smallSpace()))
	if got.Done >= total {
		t.Fatalf("cancel landed after every point: done %d of %d", got.Done, total)
	}
	if n := replays(d.cache.Stats()) - replays(st1); n != 0 {
		t.Fatalf("cancelled reuse replayed %d points", n)
	}
	if !strings.Contains(got.Error, "cancel") {
		t.Fatalf("error %q does not name the cancel", got.Error)
	}
}

// TestReuseJournalGroupCommit: reused records reach the writer all at
// once, so a job that reuses every healthy point journals them in a few
// group commits rather than one fsync per point, and its progress events
// still count 1, 2, … in journal order with the same records as the job
// that swept them.
func TestReuseJournalGroupCommit(t *testing.T) {
	fsys := &syncCountFS{FS: artifact.OS}
	d := newReuseDaemonOpts(t, 2, QueueOptions{FS: fsys})
	d.run(reuseSpec("first", smallSpace()))
	d.run(reuseSpec("second", smallSpace()))
	reused := d.cache.Stats().RecordHits
	if reused <= maxJournalBatch {
		t.Fatalf("only %d points reused; the test needs more than one batch", reused)
	}
	first, second := fsys.syncs(d.q.journalPath("first")), fsys.syncs(d.q.journalPath("second"))
	if second >= int(reused) || second >= first {
		t.Fatalf("journal fsyncs: first job %d, second job %d for %d reused points", first, second, reused)
	}
	pointRecords := func(id string) []string {
		var recs []string
		for _, ev := range d.q.events.History(id) {
			if ev.Type != EventProgress || len(ev.Record) == 0 {
				continue
			}
			if ev.Done != len(recs)+1 {
				t.Fatalf("job %s: progress event %d carries done %d", id, len(recs)+1, ev.Done)
			}
			recs = append(recs, string(ev.Record))
		}
		slices.Sort(recs)
		return recs
	}
	if a, b := pointRecords("first"), pointRecords("second"); !slices.Equal(a, b) {
		t.Fatalf("journaled records differ: %d vs %d", len(a), len(b))
	}
}
