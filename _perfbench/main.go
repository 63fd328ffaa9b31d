// Command perfbench is the repository's benchmark. It drives one workload
// per process through the packages' public APIs, checks every output,
// and prints its metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash _perfbench/run.sh --workload fig-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the run measures an untraced half and an instrumented
// half on the same inputs, checks that both simulated the same counts,
// and reports the per-layer metrics. See README.md for the workloads,
// the metrics and the layer-to-end-to-end map.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 21

// defaultSeed is the seed whose output digests are committed in
// golden.json.
const defaultSeed = 1

// env is what a workload instance may use: the run's seed and a private
// scratch directory inside the checkout.
type env struct {
	seed uint64
	work string
}

// workload builds ready-to-measure instances of one traffic shape.
type workload struct {
	name string
	// setup builds one instance; everything it does counts in setup_s.
	// A non-nil tracer instruments the instance.
	setup func(ctx context.Context, e *env, tr *tracer) (instance, error)
	// prepare, when non-nil, generates the run's input files once,
	// before any set-up; it is not timed.
	prepare func(e *env) error
	// minInputs is how many leading inputs (passes or jobs) every phase
	// completes; the per-layer simulated counts are their totals.
	minInputs int
}

// instance is one set-up workload.
type instance interface {
	// run measures for d and until inputs 0..minInputs-1 are done, always
	// finishing every unit of work (a pass or a job) it started.
	run(ctx context.Context, d time.Duration, minInputs int) (*phase, error)
	// layers reports the per-layer metrics of an instrumented instance,
	// after run.
	layers() map[string]float64
	close() error
}

// simCounts are the simulated totals of one input. They are exact and
// must be identical on any performance-only change.
type simCounts struct {
	UserWrites   int64 `json:"user_writes"`
	DeviceWrites int64 `json:"device_writes"`
	Wearouts     int64 `json:"wearouts"`
	SparesUsed   int64 `json:"spares_used"`
}

func (c *simCounts) add(o simCounts) {
	c.UserWrites += o.UserWrites
	c.DeviceWrites += o.DeviceWrites
	c.Wearouts += o.Wearouts
	c.SparesUsed += o.SparesUsed
}

// phase is what one measured phase produced.
type phase struct {
	elapsed time.Duration
	// simWrites counts user writes the program simulated (memo hits
	// excluded).
	simWrites int64
	cells     int
	jobs      int
	cellMS    []float64
	jobMS     []float64
	// counts and digests are keyed by input index: a pass or job number.
	counts  map[int]simCounts
	digests map[int]string
	// done lists every completed unit (a pass or a job) in completion
	// order, for the grouped rates.
	done []unitDone
	// rssMB is the process's peak RSS once rssUnits units had completed:
	// a fixed amount of work, so that it does not grow with the speed of
	// a run whose program keeps every job in memory.
	rssMB    float64
	rssUnits int
	// groupOf, when above 1, is the number of consecutive units that
	// make up one whole copy of the workload's load; every rate group
	// holds whole copies.
	groupOf  int
	finished int
	// failed counts jobs that failed, were refused or produced wrong
	// output; problems describes each.
	failed   int
	problems []string
}

// unitDone is one completed pass or job: when it completed, relative to
// the phase start, and the cells and simulated writes it contributed.
type unitDone struct {
	at     time.Duration
	cells  int
	writes int64
}

func newPhase(rssUnits int) *phase {
	return &phase{counts: map[int]simCounts{}, digests: map[int]string{}, rssUnits: rssUnits}
}

// completed notes that one more unit finished; it samples the peak RSS
// when the count reaches rssUnits.
func (p *phase) completed() {
	p.finished++
	if p.finished == p.rssUnits {
		p.rssMB = peakRSSMB()
	}
}

// peakRSS is rssMB, or the peak RSS so far when the run ended before
// reaching rssUnits.
func (p *phase) peakRSS() (float64, string) {
	if p.rssMB > 0 {
		return p.rssMB, fmt.Sprintf("peak RSS after set-up and the first %d jobs", p.rssUnits)
	}
	return peakRSSMB(), fmt.Sprintf("peak RSS of the whole run, which ended before %d jobs", p.rssUnits)
}

// record stores input k's counts and output digest; an input that runs
// again must reproduce both exactly.
func (p *phase) record(k int, c simCounts, digest string) {
	if prev, ok := p.digests[k]; ok && (prev != digest || p.counts[k] != c) {
		p.fail("input %d: a repeat produced different output", k)
	}
	p.counts[k] = c
	p.digests[k] = digest
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

var workloads = []workload{
	{name: "fig-sweep", setup: setupFigSweep, minInputs: 1},
	{name: "trace-replay", setup: setupReplay, prepare: writeReplayTrace, minInputs: 1},
	{name: "service-jobs", setup: setupServiceJobs, minInputs: 16,
		prepare: func(e *env) error { return prepareStore(e, serviceMix) }},
	{name: "federated-sweep", setup: setupFederated, minInputs: 8,
		prepare: func(e *env) error { return prepareStore(e, federatedMix) }},
}

func main() {
	name := flag.String("workload", "", "workload to run: fig-sweep, trace-replay, service-jobs or federated-sweep")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	goldenOut := flag.String("golden-out", "", "write this run's output digests into the named golden file")
	flag.Parse()

	// A run must end within 180 s; a wedged one must not hang.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	if err := run(*name, *seed, *seconds, *traced == 1, *goldenOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, goldenOut string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(cwd, ".bench_build"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(cwd, ".bench_build"), "run-"+name+"-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer func() {
		_ = os.RemoveAll(work)
		// Leave no writeback of this run's files to the next run.
		syscall.Sync()
	}()
	e := &env{seed: seed, work: work}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return fmt.Errorf("prepare inputs: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()

	host := readHostFacts(work)
	hostJSON, _ := json.Marshal(host) // plain fields always marshal
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("# host %s\n", hostJSON)

	total0, steal0 := cpuTicks()
	var r *report
	if traced {
		r, err = measureTraced(ctx, w, e, seconds)
	} else {
		r, err = measureUntraced(ctx, w, e, seconds)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# host cpu_steal_share=%.4f over the run\n", stealShare(total0, steal0))
	r.checkGolden(name, seed)
	if goldenOut != "" {
		if err := writeGolden(goldenOut, name, r.main.digests); err != nil {
			return err
		}
	}
	r.print(name)
	if r.failed() > 0 {
		return fmt.Errorf("%d failed or wrong-output operations", r.failed())
	}
	return nil
}

// report gathers what a run prints.
type report struct {
	main     *phase // the phase the reported metrics come from
	base     *phase // the untraced half of a traced run
	setupS   []float64
	metrics  []metric
	extra    []string
	problems []string
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *report) failed() int {
	n := r.main.failed + len(r.problems)
	if r.base != nil {
		n += r.base.failed
	}
	return n
}

func (r *report) attempted() int {
	n := r.main.jobs
	if r.base != nil {
		n += r.base.jobs
	}
	return max(n, 1)
}

func measureUntraced(ctx context.Context, w *workload, e *env, seconds float64) (*report, error) {
	r := &report{}
	var inst instance
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, so that garbage left
		// by the previous one is not charged to it.
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(ctx, e, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			continue
		}
		inst = in
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	ph, err := inst.run(ctx, secondsDur(seconds), w.minInputs)
	cpuS, wallS := cpuSeconds()-cpu0, time.Since(wall0).Seconds()
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.main = ph
	writes, cells, jobs := groupRates(ph.done, ph.groupOf)
	groups := fmt.Sprintf("median of %d groups of completed jobs", len(writes))
	r.add("setup_s", median(r.setupS), "s", fmt.Sprintf("median of %d set-ups", len(r.setupS)))
	r.add("sim_writes_per_s", median(writes), "1/s", fmt.Sprintf("%s; %d simulated user writes in %.3f s", groups, ph.simWrites, ph.elapsed.Seconds()))
	r.add("cells_per_s", median(cells), "1/s", fmt.Sprintf("%s; %d cells", groups, ph.cells))
	r.add("jobs_per_s", median(jobs), "1/s", fmt.Sprintf("%s; %d jobs", groups, ph.jobs))
	rss, note := ph.peakRSS()
	r.add("peak_rss_mb", rss, "MB", note)
	r.extra = append(r.extra,
		fmt.Sprintf("group rates: simulated writes/s %.4g", writes),
		fmt.Sprintf("group rates: jobs/s %.4g", jobs),
		fmt.Sprintf("cpu_ms_per_job %.4f  cpu_per_wall %.3f", cpuS*1e3/float64(max(ph.jobs, 1)), cpuS/wallS),
		fmt.Sprintf("cell_p50_ms  %s", percentile(ph.cellMS, 0.5)),
		fmt.Sprintf("cell_p90_ms  %s", percentile(ph.cellMS, 0.9)),
		fmt.Sprintf("job_p50_ms   %s", percentile(ph.jobMS, 0.5)),
		fmt.Sprintf("job_p90_ms   %s", percentile(ph.jobMS, 0.9)),
		fmt.Sprintf("error_rate   %.4f (%d of %d jobs)", float64(ph.failed)/float64(max(ph.jobs, 1)), ph.failed, ph.jobs),
	)
	return r, nil
}

func measureTraced(ctx context.Context, w *workload, e *env, seconds float64) (*report, error) {
	r := &report{}
	half := secondsDur(seconds / 2)

	plain, err := w.setup(ctx, e, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := plain.run(ctx, half, w.minInputs)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	setupSpan := tr.begin("setup", "", 0)
	inst, err := w.setup(ctx, e, tr)
	tr.end(setupSpan)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		_ = inst.close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph, err := inst.run(ctx, half, w.minInputs)
	pprof.StopCPUProfile()
	layers := inst.layers()
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.main, r.base = ph, base

	// The instrumented half must simulate exactly what the plain half
	// did: wrappers that changed the engine path would show here.
	var counts simCounts
	for i := 0; i < w.minInputs; i++ {
		c, ok1 := ph.counts[i]
		b, ok2 := base.counts[i]
		if !ok1 || !ok2 {
			r.problems = append(r.problems, fmt.Sprintf("input %d: no simulated counts in both halves", i))
			continue
		}
		if b != c {
			r.problems = append(r.problems, fmt.Sprintf("input %d: traced counts %+v differ from untraced %+v", i, c, b))
		}
		counts.add(c)
	}
	for i, c := range ph.counts {
		if b, ok := base.counts[i]; ok && i >= w.minInputs && b != c {
			r.problems = append(r.problems, fmt.Sprintf("input %d: traced counts %+v differ from untraced %+v", i, c, b))
		}
	}

	perPkg, total, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	share := func(pkgs ...string) float64 {
		var v int64
		for _, p := range pkgs {
			v += perPkg[p]
		}
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total)
	}
	const mod = "maxwe/internal/"
	simCore := []string{mod + "sim", mod + "attack", mod + "xrand", mod + "wearlevel", mod + "spare", mod + "mapping", mod + "device"}
	var simNS int64
	for _, p := range simCore {
		simNS += perPkg[p]
	}
	nsPerWrite := 0.0
	if ph.simWrites > 0 {
		nsPerWrite = float64(simNS) / float64(ph.simWrites)
	}
	overhead := 0.0
	if base.simWrites > 0 && ph.simWrites > 0 {
		baseRate := float64(base.simWrites) / base.elapsed.Seconds()
		rate := float64(ph.simWrites) / ph.elapsed.Seconds()
		overhead = (baseRate - rate) / baseRate
	}

	values := map[string]float64{
		"sim.cpu_share":           share(mod + "sim"),
		"attack.cpu_share":        share(mod + "attack"),
		"xrand.cpu_share":         share(mod + "xrand"),
		"wearlevel.cpu_share":     share(mod + "wearlevel"),
		"spare.cpu_share":         share(mod + "spare"),
		"mapping.cpu_share":       share(mod + "mapping"),
		"device.cpu_share":        share(mod + "device"),
		"gc.cpu_share":            share("gc"),
		"net_http.cpu_share":      share("net/http"),
		"encoding_json.cpu_share": share("encoding/json"),
		"syscall.cpu_share":       share("syscall", "internal/runtime/syscall", "runtime/internal/syscall"),
		"sim.ns_per_write":        nsPerWrite,
		"sim.user_writes":         float64(counts.UserWrites),
		"tracing.overhead_share":  overhead,
	}
	// Fig 7/8 rows carry only the normalized lifetime, from which user
	// writes alone can be recovered exactly.
	if counts.DeviceWrites > 0 {
		values["sim.device_writes"] = float64(counts.DeviceWrites)
		values["spare.wearouts"] = float64(counts.Wearouts)
		values["spare.spares_used"] = float64(counts.SparesUsed)
	}
	for k, v := range layers {
		values[k] = v
	}
	for _, m := range perLayer {
		v, ok := values[m.name]
		note := ""
		switch {
		case !ok:
			note = "n/a: layer not exercised by this workload"
		case math.IsNaN(v):
			v, note = 0, fmt.Sprintf("omitted: fewer than %d samples beyond the percentile", minBeyond)
		}
		r.add(m.name, v, m.unit, note)
	}

	r.extra = append(r.extra, fmt.Sprintf("simulated counts are totals over inputs 0..%d, equal in both halves", w.minInputs-1))
	r.extra = append(r.extra, fmt.Sprintf("tracing overhead: untraced %.0f vs traced %.0f simulated writes/s",
		float64(base.simWrites)/base.elapsed.Seconds(), float64(ph.simWrites)/ph.elapsed.Seconds()))
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.extra = append(r.extra, fmt.Sprintf("span self time %-22s %10.4f s (n=%d)", n, self[n].d.Seconds(), self[n].n))
	}
	spansPath := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-%d.json", w.name, e.seed))
	if err := tr.writeFile(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.extra = append(r.extra, "spans written to "+spansPath)
	return r, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(name string) {
	out := map[string]any{}
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("%s  %-34s %s %s%s\n", name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, x := range r.extra {
		fmt.Printf("%s  %s\n", name, x)
	}
	problems := append([]string(nil), r.problems...)
	problems = append(problems, r.main.problems...)
	if r.base != nil {
		problems = append(problems, r.base.problems...)
	}
	for _, p := range problems {
		fmt.Printf("%s  CHECK FAILED: %s\n", name, p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed() == 0,
		"attempted": r.attempted(),
		"failed":    r.failed(),
		"metrics":   out,
	})
	if err != nil {
		// Only finite floats and strings go in; NaN would be a bug here.
		panic(err)
	}
	fmt.Println(string(line))
}

//go:embed golden.json
var goldenJSON []byte

// golden holds committed output digests for defaultSeed, per workload
// and input index.
type golden map[string]map[string]string

func readGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares the run's digests with the committed ones when the
// run used the default seed; other seeds rely on the workloads' own
// seed-independent invariant checks.
func (r *report) checkGolden(name string, seed uint64) {
	if seed != defaultSeed {
		return
	}
	g, err := readGolden()
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	want := g[name]
	phases := []*phase{r.main}
	if r.base != nil {
		phases = append(phases, r.base)
	}
	checked := 0
	for _, p := range phases {
		for i, d := range p.digests {
			w, ok := want[strconv.Itoa(i)]
			if !ok {
				continue
			}
			checked++
			if w != d {
				r.problems = append(r.problems, fmt.Sprintf("input %d: output digest %s, committed %s", i, d, w))
			}
		}
	}
	if checked == 0 {
		r.problems = append(r.problems, "no output matched a committed digest")
	}
}

func writeGolden(path, name string, digests map[int]string) error {
	g := golden{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	m := map[string]string{}
	for i, d := range digests {
		if i < goldenInputs {
			m[strconv.Itoa(i)] = d
		}
	}
	g[name] = m
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// goldenInputs bounds the committed digests per workload.
const goldenInputs = 64
