package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"maxwe"
	"maxwe/internal/cluster"
	"maxwe/internal/memo"
	"maxwe/internal/service"
	"maxwe/internal/service/client"
	"maxwe/internal/sim"
)

// jobMix fixes the shape of a daemon workload.
type jobMix struct {
	federated bool
	// cycle is the jobs the client submits, in order, over and over. It
	// is the same for every seed: the seed draws the cells' simulation
	// seeds, never the shape of the load, so every run and every rate
	// group of a run measures the same mix of work.
	cycle []cycleJob
	// warmup is how long, and warmupJobs how many jobs at least, the
	// daemon runs the same cycle over a third pool before the measured
	// phase; a fresh daemon's first seconds run markedly slower.
	warmup     time.Duration
	warmupJobs int
	// endurance is the cells' mean line endurance, which sets how long
	// a cell simulates.
	endurance int
	// rssJobs is the amount of work after which peak_rss_mb is read.
	rssJobs int
}

// cycleJob is one job of a cycle: a fresh spec of cells cells, or, when
// back is positive, a resubmission of the spec of the job back places
// earlier in the same cycle, whose cells the memo cache then serves.
type cycleJob struct {
	cells int
	back  int
}

// The daemon workloads. A closed loop runs as fast as its bottleneck.
// With cells of microseconds that is the disk and the round trips, and on
// a 2-vCPU virtual host both betray it: a sustained fsync rate above
// roughly 1500/s made every following run slower than the last, and a
// run under 20% hypervisor steal completed a third to a half fewer jobs,
// where a CPU-bound run loses a fifth. Cells of a few milliseconds keep
// the fsync rate near 1000/s; at 1500/s, with cells half as long, the
// kernel time per job drifted by half from run to run.
//
// A service cycle is 16 jobs of 1 to 24 cells; every fourth resubmits
// the job two places before it, so a quarter of the jobs (49 of 180
// cells) are memo-served. Federated jobs run 32 cells each and never
// repeat.
var (
	serviceMix = jobMix{
		cycle: []cycleJob{
			{1, 0}, {24, 0}, {6, 0}, {0, 2},
			{12, 0}, {3, 0}, {18, 0}, {0, 2},
			{9, 0}, {15, 0}, {2, 0}, {0, 2},
			{21, 0}, {7, 0}, {13, 0}, {0, 2},
		},
		warmup: 5 * time.Second, warmupJobs: 32, endurance: 800, rssJobs: 64,
	}
	federatedMix = jobMix{federated: true, cycle: []cycleJob{{32, 0}},
		warmup: time.Second, warmupJobs: 16, endurance: 400, rssJobs: 32}
)

const (
	// historyJobs is how many finished jobs the store holds before the
	// run, so that every set-up is a daemon start that loads a real job
	// history; they run 1 to 4 cells each.
	historyJobs = 200
	// federatedChecks is how many federated jobs are re-run on the single
	// node, after the measured phase, to compare result bytes.
	federatedChecks = 4
	// cellKinds is how many attack × scheme × leveler stacks jobCell
	// builds.
	cellKinds = 18
)

// jobCell is one cell of a job: a 1024-line device of the given mean
// endurance under stack kind (one of cellKinds attack, scheme and
// leveler combinations), seeded by h; it simulates in a few
// milliseconds.
func jobCell(kind, endurance int, h uint64) maxwe.Config {
	cfg := maxwe.DefaultConfig()
	cfg.Regions = 64
	cfg.LinesPerRegion = 16
	cfg.MeanEndurance = float64(endurance)
	cfg.Psi = 8
	cfg.Scheme = []string{"max-we", "ps-random", "ps-worst"}[kind%3]
	cfg.Attack = []string{"uaa", "bpa", "hotcold"}[kind/3%3]
	cfg.WearLeveling = []string{"", "start-gap"}[kind/9%2]
	cfg.Seed = h
	return cfg
}

// cellsSpec is job number job of n cells. The cells' seeds depend on the
// seed and the job number, so no two jobs share a cell; their stacks
// depend only on the job's place in the cycle.
func (m jobMix) cellsSpec(seed uint64, job, n int) service.JobSpec {
	cells := make([]service.CellSpec, n)
	first := 7 * (job % max(len(m.cycle), 1))
	for c := range cells {
		cfg := jobCell((first+c)%cellKinds, m.endurance, mix(seed, uint64(job), 4, uint64(c)))
		cells[c] = service.CellSpec{Key: fmt.Sprintf("c%02d", c), Config: cfg}
	}
	// One cell in flight, federated or not: two cells on the two CPUs
	// of the reference host swung per-cell times, and a federated job
	// that kept both workers busy spread 24% over ten runs. The
	// coordinator still shards a job's cells over both workers.
	return service.JobSpec{Kind: service.KindCells, Cells: cells, Parallelism: 1, Federated: m.federated}
}

// spec is job i of the mix's pool drawn from seed, and the index of the
// job whose spec it repeats (i itself for a fresh spec).
func (m jobMix) spec(seed uint64, i int) (service.JobSpec, int) {
	orig := i - m.cycle[i%len(m.cycle)].back
	return m.cellsSpec(seed, orig, m.cycle[orig%len(m.cycle)].cells), orig
}

// daemon is an in-process nvmd on loopback: a service.Manager with an
// on-disk store served through service.NewHandler, optionally wired to a
// cluster.Coordinator with two one-slot workers.
type daemon struct {
	mgr       *service.Manager
	coord     *cluster.Coordinator
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client
	stop      context.CancelFunc
	workers   sync.WaitGroup

	// Instrumentation of a traced daemon; nil otherwise.
	fs       *fsSpy
	dispatch *dispatchSpy
}

// storeConfig is the daemon's store inside the run's scratch directory.
// Federated jobs never repeat, so that daemon runs without a memo cache,
// and the single-node re-run that checks them computes from scratch. An
// instrumented daemon gets a memo cache of its own: it reruns the inputs
// of the untraced half, which must not find their cells cached.
func storeConfig(e *env, federated, traced bool) service.Config {
	cfg := service.Config{DataDir: filepath.Join(e.work, "store", "data")}
	switch {
	case federated:
	case traced:
		cfg.CacheDir = filepath.Join(e.work, "store", "cache-traced")
	default:
		cfg.CacheDir = filepath.Join(e.work, "store", "cache")
	}
	return cfg
}

// prepareStore fills the store with historyJobs finished jobs drawn from
// a pool disjoint from the measured one.
func prepareStore(e *env, m jobMix) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := startDaemon(ctx, storeConfig(e, m.federated, false), false, nil)
	if err != nil {
		return err
	}
	ids := make([]string, historyJobs)
	for i := range ids {
		st, err := d.client.Submit(ctx, jobMix{endurance: m.endurance}.cellsSpec(mix(e.seed, 0x4157), i, 1+i%4))
		if err != nil {
			_ = d.close()
			return err
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		if st, err := d.client.Wait(ctx, id); err != nil || st.State != service.StateDone {
			_ = d.close()
			return fmt.Errorf("history job %s: %v %s", id, err, st.Error)
		}
	}
	return d.close()
}

func startDaemon(ctx context.Context, cfg service.Config, federated bool, tr *tracer) (*daemon, error) {
	d := &daemon{}
	if tr != nil {
		d.fs = newFSSpy(tr, cfg.CacheDir)
		cfg.FS = d.fs
	}
	if federated {
		d.coord = cluster.NewCoordinator(cluster.Config{EngineSchema: sim.EngineSchemaVersion})
		cfg.Dispatcher = d.coord
		if tr != nil {
			d.dispatch = &dispatchSpy{inner: d.coord, tr: tr}
			cfg.Dispatcher = d.dispatch
		}
	}
	mgr, err := service.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	mgr.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	var handler http.Handler = service.NewHandler(mgr)
	if tr != nil {
		handler = &routeSpy{next: handler, tr: tr, prefix: "service"}
	}
	if federated {
		var clusterHandler http.Handler = cluster.NewHandler(d.coord, nil)
		if tr != nil {
			clusterHandler = &routeSpy{next: clusterHandler, tr: tr, prefix: "cluster"}
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", clusterHandler)
		mux.Handle("/", handler)
		handler = mux
	}
	d.srv = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 16}
	httpClient := &http.Client{Transport: d.transport}
	d.client = client.New(base)
	d.client.HTTPClient = httpClient

	wctx, stop := context.WithCancel(context.Background())
	d.stop = stop
	if federated {
		for w := 0; w < 2; w++ {
			compute := func(ctx context.Context, t cluster.Task) (json.RawMessage, error) {
				v, err := service.ComputeCell(ctx, t.Spec, t.Key, nil)
				return json.RawMessage(v), err
			}
			if tr != nil {
				compute = d.dispatch.wrapCompute(compute)
			}
			d.workers.Add(1)
			go func() {
				defer d.workers.Done()
				_ = cluster.RunWorker(wctx, cluster.WorkerOptions{
					Coordinator: base,
					Compute:     compute,
					Info:        cluster.WorkerInfo{Name: fmt.Sprintf("bench-%d", w), Slots: 1, EngineSchema: sim.EngineSchemaVersion},
					Client:      httpClient,
				})
			}()
		}
	}
	if err := d.ready(ctx, federated); err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

// ready waits until the daemon answers and, when federated, both workers
// have registered.
func (d *daemon) ready(ctx context.Context, federated bool) error {
	if err := d.client.Healthz(ctx); err != nil {
		return err
	}
	for federated {
		ws, err := d.client.Workers(ctx)
		if err != nil {
			return err
		}
		if len(ws) == 2 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

func (d *daemon) close() error {
	d.stop()
	d.workers.Wait()
	d.mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.transport.CloseIdleConnections()
	return err
}

// jobOutcome is one job's client-side view.
type jobOutcome struct {
	orig   int // the job whose spec this one repeats (itself if fresh)
	ms     float64
	at     time.Duration // completion, relative to the phase start
	digest string
	counts simCounts
	cells  int
	err    error
}

// jobWorkload is a closed loop of one client over an in-process daemon:
// the client submits a job, waits for it and fetches its result, then
// submits the next.
type jobWorkload struct {
	jobMix
	d    *daemon
	tr   *tracer
	seed uint64

	// layerValues holds a traced run's per-layer metrics, taken at the
	// end of the measured phase.
	layerValues map[string]float64
}

func setupServiceJobs(ctx context.Context, e *env, tr *tracer) (instance, error) {
	return setupJobs(ctx, e, tr, serviceMix)
}

func setupFederated(ctx context.Context, e *env, tr *tracer) (instance, error) {
	return setupJobs(ctx, e, tr, federatedMix)
}

func setupJobs(ctx context.Context, e *env, tr *tracer, m jobMix) (instance, error) {
	d, err := startDaemon(ctx, storeConfig(e, m.federated, tr != nil), m.federated, tr)
	if err != nil {
		return nil, err
	}
	return &jobWorkload{jobMix: m, d: d, tr: tr, seed: e.seed}, nil
}

func (j *jobWorkload) close() error { return j.d.close() }

func (j *jobWorkload) run(ctx context.Context, d time.Duration, minInputs int) (*phase, error) {
	warmSeed := mix(j.seed, 0x3a12)
	warm := j.loop(ctx, time.Now().Add(j.warmup), j.warmupJobs, func(i int) (service.JobSpec, int) {
		return j.spec(warmSeed, i)
	}, nil)
	for i, out := range warm {
		if out.err != nil {
			return nil, fmt.Errorf("warm-up job %d: %w", i, out.err)
		}
	}
	// Start the measured phase from a clean writeback state, so that it
	// does not pay for the store preparation and the warm-up.
	syscall.Sync()
	j.tr.mark()
	j.d.fs.mark()
	j.d.dispatch.mark()

	ph := newPhase(j.rssJobs)
	ph.groupOf = len(j.cycle)
	cacheBefore := j.d.mgr.CacheStats().Stats
	start := time.Now()
	outcomes := j.loop(ctx, start.Add(d), minInputs, func(i int) (service.JobSpec, int) { return j.spec(j.seed, i) }, ph)
	ph.elapsed = time.Since(start)
	cacheAfter := j.d.mgr.CacheStats().Stats

	for i, out := range outcomes {
		ph.jobs++
		if out.err != nil {
			ph.fail("job %d: %v", i, out.err)
			continue
		}
		ph.jobMS = append(ph.jobMS, out.ms)
		ph.cells += out.cells
		ph.record(i, out.counts, out.digest)
		unit := unitDone{at: out.at, cells: out.cells}
		if out.orig == i {
			unit.writes = out.counts.UserWrites
		}
		ph.done = append(ph.done, unit)
		ph.simWrites += unit.writes
		if out.orig == i {
			continue
		}
		// A repeated spec is served from the memo cache; its bytes must
		// equal those the original job computed.
		if o, ok := outcomes[out.orig]; ok && o.err == nil && o.digest != out.digest {
			ph.fail("job %d repeats job %d but its result differs", i, out.orig)
		}
	}
	if j.tr != nil {
		j.layerValues = j.measureLayers(ph.jobs, cacheBefore, cacheAfter)
	}
	if j.federated {
		j.checkSingleNode(ctx, ph, outcomes)
	}
	return ph, nil
}

// loop runs the closed loop over jobs 0, 1, ... until inputs
// 0..minInputs-1 are done, the deadline has passed and the last cycle is
// complete. Completion times are relative to the loop's start; ph, when
// non-nil, is told of each completion.
func (j *jobWorkload) loop(ctx context.Context, deadline time.Time, minInputs int, spec func(int) (service.JobSpec, int), ph *phase) map[int]jobOutcome {
	outcomes := map[int]jobOutcome{}
	start := time.Now()
	for i := 0; i < minInputs || time.Now().Before(deadline) || i%len(j.cycle) != 0; i++ {
		s, orig := spec(i)
		out := j.runJob(ctx, i, s, orig)
		out.at = time.Since(start)
		outcomes[i] = out
		if ph != nil {
			ph.completed()
		}
	}
	return outcomes
}

// checkSingleNode re-runs the first federated jobs as plain local jobs on
// the same daemon, after the measured phase, and compares result bytes.
func (j *jobWorkload) checkSingleNode(ctx context.Context, ph *phase, outcomes map[int]jobOutcome) {
	for i := 0; i < federatedChecks; i++ {
		fed, ok := outcomes[i]
		if !ok || fed.err != nil {
			continue
		}
		spec, _ := j.spec(j.seed, i)
		spec.Federated = false
		st, err := j.d.client.Submit(ctx, spec)
		if err == nil {
			_, err = j.d.client.Wait(ctx, st.ID)
		}
		var raw []byte
		if err == nil {
			raw, err = j.d.client.Result(ctx, st.ID)
		}
		var local string
		if err == nil {
			local, err = canonicalDigest(raw)
		}
		if err != nil {
			ph.fail("job %d: single-node re-run: %v", i, err)
		} else if local != fed.digest {
			ph.fail("job %d: federated result differs from the single-node run", i)
		}
	}
}

// runJob is one client iteration: Submit, Wait, Result.
func (j *jobWorkload) runJob(ctx context.Context, i int, spec service.JobSpec, orig int) jobOutcome {
	out := jobOutcome{orig: orig}
	key := fmt.Sprintf("job-%d", i)
	t0 := time.Now()
	jobSpan := j.tr.begin("client.job", key, 0)
	defer j.tr.end(jobSpan)

	st, err := j.d.client.Submit(ctx, spec)
	t1 := time.Now()
	j.tr.record("client.submit", key, jobSpan, t0, t1)
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	fin, err := j.d.client.Wait(ctx, st.ID)
	t2 := time.Now()
	j.tr.record("client.wait", key, jobSpan, t1, t2)
	if err != nil {
		out.err = fmt.Errorf("wait: %w", err)
		return out
	}
	if fin.State != service.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		return out
	}
	raw, err := j.d.client.Result(ctx, st.ID)
	j.tr.record("client.result", key, jobSpan, t2, time.Now())
	if err != nil {
		out.err = fmt.Errorf("result: %w", err)
		return out
	}
	out.ms = msSince(t0)

	var res service.JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		out.err = fmt.Errorf("decode result: %w", err)
		return out
	}
	if len(res.Failed) > 0 || len(res.Cells) != len(spec.Cells) {
		out.err = fmt.Errorf("job %s: %d of %d cells, failures %v", st.ID, len(res.Cells), len(spec.Cells), res.Failed)
		return out
	}
	for _, c := range spec.Cells {
		r := res.Cells[c.Key]
		if !r.Failed || r.UserWrites <= 0 {
			out.err = fmt.Errorf("job %s cell %s: implausible result %+v", st.ID, c.Key, r)
			return out
		}
		out.counts.add(resultCounts(r))
	}
	out.cells = len(res.Cells)
	out.digest, out.err = canonicalDigest(raw)
	return out
}

// canonicalDigest hashes a job result document without its job ID, the
// one field that differs between two runs of the same spec.
func canonicalDigest(raw []byte) (string, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("decode result: %w", err)
	}
	delete(doc, "id")
	return digestJSON(doc), nil
}

func (j *jobWorkload) layers() map[string]float64 { return j.layerValues }

func (j *jobWorkload) measureLayers(nJobs int, cacheBefore, cacheAfter memo.Stats) map[string]float64 {
	jobs := float64(max(nJobs, 1))
	m := map[string]float64{}
	for class, s := range j.d.fs.snapshot() {
		m["atomicio."+class+".writes_per_job"] = float64(s.writes) / jobs
		m["atomicio."+class+".fsyncs_per_job"] = float64(s.fsyncs) / jobs
		m["atomicio."+class+".bytes_per_job"] = float64(s.bytes) / jobs
		m["atomicio."+class+".sync_ms_per_job"] = float64(s.syncNS) / 1e6 / jobs
	}
	if !j.federated {
		hits := cacheAfter.Hits - cacheBefore.Hits
		misses := cacheAfter.Misses - cacheBefore.Misses
		m["memo.hits"] = float64(hits)
		m["memo.misses"] = float64(misses)
		if hits+misses > 0 {
			m["memo.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		m["memo.bytes_written"] = float64(cacheAfter.BytesWritten - cacheBefore.BytesWritten)
	}
	m["service.submit_ms_p50"] = reportable(percentile(j.tr.durations("service.submit"), 0.5))
	m["service.status_ms_p50"] = reportable(percentile(j.tr.durations("service.status"), 0.5))
	m["service.events_ms_p50"] = reportable(percentile(j.tr.durations("service.events"), 0.5))
	m["service.result_ms_p50"] = reportable(percentile(j.tr.durations("service.result"), 0.5))
	m["service.requests_per_job"] = float64(j.tr.count("service.submit", "service.status", "service.events", "service.result")) / jobs
	m["client.wait_ms_p50"] = reportable(percentile(j.tr.durations("client.wait"), 0.5))
	if j.federated {
		for k, v := range j.d.dispatch.layers(j.d.coord.Stats()) {
			m[k] = v
		}
	}
	return m
}
