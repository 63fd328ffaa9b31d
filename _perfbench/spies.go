package main

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"maxwe/internal/atomicio"
	"maxwe/internal/cluster"
	"maxwe/internal/service"
)

// ioStats are the durable-write counters of one file class.
type ioStats struct {
	writes, fsyncs, bytes, syncNS int64
}

// fsSpy is the benchmark's atomicio.FS, passed as service.Config.FS in
// traced runs. It forwards to the real filesystem and counts, per file
// class, the files written, the fsyncs (file and directory), the bytes
// and the time spent syncing. Classes: "ckpt" (runner checkpoints),
// "cache" (memo entries) and "store" (job spec, state and result).
type fsSpy struct {
	tr       *tracer
	cacheDir string
	mu       sync.Mutex
	stats    map[string]*ioStats
	// renamed queues, per directory, the classes of files renamed into
	// it whose directory sync is still to come: atomicio.WriteFile
	// renames once and then syncs the directory once.
	renamed map[string][]string
}

func newFSSpy(tr *tracer, cacheDir string) *fsSpy {
	return &fsSpy{tr: tr, cacheDir: cacheDir, stats: map[string]*ioStats{
		"ckpt": {}, "cache": {}, "store": {},
	}, renamed: map[string][]string{}}
}

func (f *fsSpy) class(path string) string {
	if f.cacheDir != "" && strings.HasPrefix(path, f.cacheDir+string(filepath.Separator)) {
		return "cache"
	}
	if strings.HasSuffix(strings.TrimSuffix(path, atomicio.TempSuffix), ".ckpt.json") {
		return "ckpt"
	}
	return "store"
}

func (f *fsSpy) add(class string, fn func(s *ioStats)) {
	f.mu.Lock()
	fn(f.stats[class])
	f.mu.Unlock()
}

// mark zeroes the counters at the start of the measured phase.
func (f *fsSpy) mark() {
	if f == nil {
		return
	}
	f.mu.Lock()
	for _, s := range f.stats {
		*s = ioStats{}
	}
	f.mu.Unlock()
}

// snapshot copies the counters; a nil spy has none.
func (f *fsSpy) snapshot() map[string]ioStats {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]ioStats{}
	for k, v := range f.stats {
		out[k] = *v
	}
	return out
}

func (f *fsSpy) OpenFileWrite(path string) (atomicio.File, error) {
	file, err := atomicio.OS.OpenFileWrite(path)
	if err != nil {
		return nil, err
	}
	class := f.class(path)
	f.add(class, func(s *ioStats) { s.writes++ })
	return &spyFile{File: file, fs: f, class: class}, nil
}

func (f *fsSpy) ReadFile(path string) ([]byte, error) { return atomicio.OS.ReadFile(path) }

func (f *fsSpy) Rename(oldpath, newpath string) error {
	err := atomicio.OS.Rename(oldpath, newpath)
	if err == nil {
		dir := filepath.Dir(newpath)
		f.mu.Lock()
		f.renamed[dir] = append(f.renamed[dir], f.class(newpath))
		f.mu.Unlock()
	}
	return err
}

func (f *fsSpy) Remove(path string) error { return atomicio.OS.Remove(path) }

func (f *fsSpy) SyncDir(dir string) error {
	t0 := time.Now()
	err := atomicio.OS.SyncDir(dir)
	t1 := time.Now()
	f.mu.Lock()
	class := "store"
	if q := f.renamed[dir]; len(q) > 0 {
		class, f.renamed[dir] = q[0], q[1:]
	}
	s := f.stats[class]
	s.fsyncs++
	s.syncNS += t1.Sub(t0).Nanoseconds()
	f.mu.Unlock()
	f.tr.record("atomicio.syncdir", class, 0, t0, t1)
	return err
}

type spyFile struct {
	atomicio.File
	fs    *fsSpy
	class string
}

func (s *spyFile) Write(p []byte) (int, error) {
	n, err := s.File.Write(p)
	s.fs.add(s.class, func(st *ioStats) { st.bytes += int64(n) })
	return n, err
}

func (s *spyFile) Sync() error {
	t0 := time.Now()
	err := s.File.Sync()
	t1 := time.Now()
	s.fs.add(s.class, func(st *ioStats) {
		st.fsyncs++
		st.syncNS += t1.Sub(t0).Nanoseconds()
	})
	s.fs.tr.record("atomicio.fsync", s.class, 0, t0, t1)
	return err
}

// routeSpy times each request of a handler as a span named by its route,
// keyed by the job ID in the path. It passes the ResponseWriter through
// untouched, so streaming responses still flush.
type routeSpy struct {
	next   http.Handler
	tr     *tracer
	prefix string
}

func (h *routeSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, key := route(r)
	sp := h.tr.begin(h.prefix+"."+name, key, 0)
	h.next.ServeHTTP(w, r)
	h.tr.end(sp)
}

// route names a request of the job API or the cluster API.
func route(r *http.Request) (name, key string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "jobs" && r.Method == http.MethodPost:
		return "submit", ""
	case len(parts) == 3 && parts[1] == "jobs":
		return "status", parts[2]
	case len(parts) == 4 && parts[1] == "jobs":
		return parts[3], parts[2] // events, result
	case len(parts) == 3 && parts[1] == "cluster":
		if parts[2] == "result" {
			return "report", ""
		}
		return parts[2], "" // register, lease, heartbeat, workers, stats
	}
	return "other", ""
}

// dispatchSpy wraps the coordinator as the manager's CellDispatcher and
// the workers' ComputeFunc, timing each cell on both sides.
type dispatchSpy struct {
	inner service.CellDispatcher
	tr    *tracer
	mu    sync.Mutex
	// dispatchMS and computeMS are keyed by job/cell.
	dispatchMS map[string]float64
	computeMS  map[string]float64
}

func (d *dispatchSpy) DispatchCell(ctx context.Context, job string, spec []byte, key, fingerprint string) ([]byte, error) {
	t0 := time.Now()
	v, err := d.inner.DispatchCell(ctx, job, spec, key, fingerprint)
	t1 := time.Now()
	d.tr.record("cluster.dispatch", job+"/"+key, 0, t0, t1)
	d.mu.Lock()
	if d.dispatchMS == nil {
		d.dispatchMS = map[string]float64{}
	}
	d.dispatchMS[job+"/"+key] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	d.mu.Unlock()
	return v, err
}

func (d *dispatchSpy) wrapCompute(fn cluster.ComputeFunc) cluster.ComputeFunc {
	return func(ctx context.Context, t cluster.Task) (json.RawMessage, error) {
		t0 := time.Now()
		v, err := fn(ctx, t)
		t1 := time.Now()
		d.tr.record("worker.compute", t.Job+"/"+t.Key, 0, t0, t1)
		d.mu.Lock()
		if d.computeMS == nil {
			d.computeMS = map[string]float64{}
		}
		d.computeMS[t.Job+"/"+t.Key] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		d.mu.Unlock()
		return v, err
	}
}

// mark forgets the cells timed before the measured phase.
func (d *dispatchSpy) mark() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.dispatchMS, d.computeMS = nil, nil
	d.mu.Unlock()
}

func (d *dispatchSpy) layers(stats cluster.Stats) map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var dispatch, compute, overhead []float64
	for k, ms := range d.dispatchMS {
		dispatch = append(dispatch, ms)
		if c, ok := d.computeMS[k]; ok {
			compute = append(compute, c)
			overhead = append(overhead, ms-c)
		}
	}
	cells := float64(max(len(d.dispatchMS), 1))
	return map[string]float64{
		"cluster.lease_ms_p50":             reportable(percentile(d.tr.durations("cluster.lease"), 0.5)),
		"cluster.report_ms_p50":            reportable(percentile(d.tr.durations("cluster.report"), 0.5)),
		"cluster.requests_per_cell":        float64(d.tr.count("cluster.register", "cluster.lease", "cluster.report", "cluster.heartbeat")) / cells,
		"cluster.worker_compute_ms_p50":    reportable(percentile(compute, 0.5)),
		"cluster.dispatch_overhead_ms_p50": reportable(percentile(overhead, 0.5)),
		"cluster.reassignments":            float64(stats.Reassigned),
		"runner.compute_s":                 sumMS(dispatch) / 1e3,
	}
}

func sumMS(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
