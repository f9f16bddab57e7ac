package main

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
	"graphdse/internal/ml"
)

// countingFS wraps the daemon's storage seam. It counts fsyncs (file and
// directory), renames and bytes written, times each fsync, and, when
// tracing, records each fsync as a span grouped under the job its path
// names.
type countingFS struct {
	inner artifact.FS
	tr    *tracer

	fsyncs, renames, bytes, fsyncNanos atomic.Int64
}

type ioCounts struct {
	fsyncs, renames, bytes int64
	fsyncS                 float64
}

func (c *countingFS) counts() ioCounts {
	return ioCounts{
		fsyncs: c.fsyncs.Load(), renames: c.renames.Load(), bytes: c.bytes.Load(),
		fsyncS: float64(c.fsyncNanos.Load()) / 1e9,
	}
}

func (c *countingFS) timeSync(name string, sync func() error) error {
	t0 := time.Now()
	err := sync()
	t1 := time.Now()
	c.fsyncs.Add(1)
	c.fsyncNanos.Add(int64(t1.Sub(t0)))
	c.tr.add(0, 0, jobOfPath(name), "artifact.fsync", t0, t1)
	return err
}

// jobOfPath extracts the job id from a spool path: every per-job file is
// named <id>.<ext> or, while an atomic write is in flight, .<id>.<ext>.tmp-*.
func jobOfPath(name string) string {
	base := strings.TrimPrefix(filepath.Base(name), ".")
	id, _, _ := strings.Cut(base, ".")
	return id
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (artifact.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (artifact.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.inner.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countingFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

func (c *countingFS) Stat(name string) (os.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func (c *countingFS) SyncDir(dir string) error {
	return c.timeSync(dir, func() error { return c.inner.SyncDir(dir) })
}

type countingFile struct {
	artifact.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.timeSync(f.Name(), f.File.Sync) }

// mlStats accumulates the timed models' fits and predictions.
type mlStats struct {
	mu sync.Mutex
	// fitS is guarded by mu: seconds spent in Fit per model name.
	fitS map[string]float64

	predicts, predictNanos atomic.Int64
}

func newMLStats() *mlStats { return &mlStats{fitS: map[string]float64{}} }

// take returns the fit seconds per model and mean Predict microseconds
// since the last take, and resets the counters.
func (s *mlStats) take() (map[string]float64, float64) {
	s.mu.Lock()
	fits := s.fitS
	s.fitS = map[string]float64{}
	s.mu.Unlock()
	n, ns := s.predicts.Swap(0), s.predictNanos.Swap(0)
	var us float64
	if n > 0 {
		us = float64(ns) / float64(n) / 1e3
	}
	return fits, us
}

// timedModels wraps each model factory so that every Fit and Predict the
// program makes is timed on the program's own call path. Timing happens
// only while the tracer is on; otherwise the wrapper just delegates.
func timedModels(specs []dse.ModelSpec, tr *tracer, st *mlStats, group string, parent int64) []dse.ModelSpec {
	out := make([]dse.ModelSpec, len(specs))
	for i, spec := range specs {
		spec := spec
		out[i] = dse.ModelSpec{Name: spec.Name, New: func() ml.Regressor {
			return &timedModel{name: spec.Name, inner: spec.New(), tr: tr, st: st, group: group, parent: parent}
		}}
	}
	return out
}

type timedModel struct {
	name   string
	inner  ml.Regressor
	tr     *tracer
	st     *mlStats
	group  string
	parent int64
}

func (m *timedModel) Fit(X [][]float64, y []float64) error {
	if !m.tr.enabled() {
		return m.inner.Fit(X, y)
	}
	t0 := time.Now()
	err := m.inner.Fit(X, y)
	t1 := time.Now()
	m.st.mu.Lock()
	m.st.fitS[m.name] += t1.Sub(t0).Seconds()
	m.st.mu.Unlock()
	m.tr.add(0, m.parent, m.group, "ml.fit."+m.name, t0, t1)
	return err
}

func (m *timedModel) Predict(x []float64) float64 {
	if !m.tr.enabled() {
		return m.inner.Predict(x)
	}
	t0 := time.Now()
	v := m.inner.Predict(x)
	m.st.predictNanos.Add(int64(time.Since(t0)))
	m.st.predicts.Add(1)
	return v
}

// heapSampler tracks the peak live Go heap — the heap the last garbage
// collection found reachable — by sampling the runtime every few
// milliseconds. Live heap, unlike all bytes in heap objects, does not
// depend on how far the collector lags behind allocation.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(readHeap())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// takePeakMB returns the peak since the last call in MB and restarts the
// window from the current heap size.
func (h *heapSampler) takePeakMB() float64 {
	h.observe()
	return float64(h.peak.Swap(readHeap())) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
