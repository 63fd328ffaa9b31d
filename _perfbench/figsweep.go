package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"maxwe/internal/experiments"
	"maxwe/internal/runner"
)

// inputCycle is how many distinct inputs (setups, stack sets) a sweep
// workload cycles through; pass i runs input i % inputCycle.
const inputCycle = 4

// figSweep runs cold Fig 7 and Fig 8 sweeps at the paper's default scale,
// one pass (Fig 7 then Fig 8) per setup seed, with no cache and no
// checkpoint.
type figSweep struct {
	tr     *tracer
	setups [inputCycle]experiments.Setup
	// endurance is each setup's Σ line endurance, which turns a row's
	// normalized lifetime back into its exact simulated user writes.
	endurance [inputCycle]float64
	spy       runnerSpy
	passes    int
}

func setupFigSweep(_ context.Context, e *env, tr *tracer) (instance, error) {
	f := &figSweep{tr: tr, spy: runnerSpy{tr: tr}}
	for k := range f.setups {
		s := experiments.DefaultSetup()
		s.Seed = mix(e.seed, uint64(k))
		f.setups[k] = s
		sp := tr.begin("endurance.profile", "", 0)
		f.endurance[k] = s.Profile().Sum()
		tr.end(sp)
		// Building the cells derives each cell's profile and key: the
		// program's own set-up for the sweep.
		sp = tr.begin("cells.build", "", 0)
		_ = experiments.Fig7Cells(s, experiments.Fig7DefaultPercents(), experiments.WLNames())
		_ = experiments.Fig8Cells(s)
		tr.end(sp)
	}
	return f, nil
}

func (f *figSweep) close() error { return nil }

func (f *figSweep) run(ctx context.Context, d time.Duration, minInputs int) (*phase, error) {
	ph := newPhase(1)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < minInputs || time.Now().Before(deadline); i++ {
		k := i % inputCycle
		t0 := time.Now()
		rows7, rows8, gmeans, cellMS, err := f.pass(ctx, k, i)
		if err != nil {
			return nil, err
		}
		ph.jobMS = append(ph.jobMS, msSince(t0))
		ph.jobs++
		ph.completed()
		ph.cells += len(cellMS)
		ph.cellMS = append(ph.cellMS, cellMS...)

		var counts simCounts
		for _, r := range rows7 {
			counts.UserWrites += f.writes(k, r.Normalized)
		}
		for _, r := range rows8 {
			counts.UserWrites += f.writes(k, r.Normalized)
		}
		ph.simWrites += counts.UserWrites
		ph.done = append(ph.done, unitDone{at: time.Since(start), cells: len(cellMS), writes: counts.UserWrites})
		ph.record(k, counts, digestJSON(struct {
			Fig7   []experiments.Fig7Row `json:"fig7"`
			Fig8   []experiments.Fig8Row `json:"fig8"`
			Gmeans map[string]float64    `json:"gmeans"`
		}{rows7, rows8, gmeans}))

		// Seed-independent checks: complete figures, and the paper's
		// Figure 8 ordering of the spare schemes' geometric means.
		if len(rows7) != 24 || len(rows8) != 12 {
			ph.fail("pass %d: %d Fig 7 and %d Fig 8 rows, want 24 and 12", i, len(rows7), len(rows8))
			continue
		}
		if !(gmeans["max-we"] > gmeans["pcd/ps"] && gmeans["pcd/ps"] > gmeans["ps-worst"]) {
			ph.fail("pass %d: Fig 8 gmean order %v, want max-we > pcd/ps > ps-worst", i, gmeans)
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// writes recovers a row's exact simulated user writes from its normalized
// lifetime (user writes / Σ endurance).
func (f *figSweep) writes(k int, normalized float64) int64 {
	return int64(math.Round(normalized * f.endurance[k]))
}

// pass runs Fig 7 then Fig 8 for setup k. Untraced it calls
// experiments.Fig7Sweep and Fig8Sweep; traced it runs the same cells
// through runner.Run with Cell.Run and Config.Progress wrapped, which is
// the body of those two functions.
func (f *figSweep) pass(ctx context.Context, k, i int) ([]experiments.Fig7Row, []experiments.Fig8Row, map[string]float64, []float64, error) {
	s := f.setups[k]
	pcts, wls := experiments.Fig7DefaultPercents(), experiments.WLNames()
	timer := newCellTimer()
	cfg := runner.Config{Parallelism: 1, Progress: timer.progress}
	if f.tr == nil {
		rows7, rep7, err := experiments.Fig7Sweep(ctx, cfg, s, pcts, wls)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rows8, gmeans, rep8, err := experiments.Fig8Sweep(ctx, cfg, s)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if len(rep7.Failed)+len(rep8.Failed) > 0 {
			return nil, nil, nil, nil, fmt.Errorf("pass %d: failed cells %v %v", i, rep7.Failed, rep8.Failed)
		}
		return rows7, rows8, gmeans, timer.ms, nil
	}

	f.spy.passKey = fmt.Sprintf("pass-%d", i)
	f.passes++
	rep7, err := spyRun(ctx, &f.spy, runner.Config{Parallelism: 1}, experiments.Fig7Cells(s, pcts, wls), timer)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rep8, err := spyRun(ctx, &f.spy, runner.Config{Parallelism: 1}, experiments.Fig8Cells(s), timer)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if len(rep7.Failed)+len(rep8.Failed) > 0 {
		return nil, nil, nil, nil, fmt.Errorf("pass %d: failed cells %v %v", i, rep7.Failed, rep8.Failed)
	}
	rows8, gmeans := experiments.Fig8FromResults(rep8.Results)
	return experiments.Fig7FromResults(rep7.Results, pcts, wls), rows8, gmeans, timer.ms, nil
}

func (f *figSweep) layers() map[string]float64 {
	m := f.spy.layers(f.passes)
	m["endurance.profile_s"] = sumSeconds(f.tr, "endurance.profile")
	return m
}

// msSince is the milliseconds elapsed since t0.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// digestJSON is the SHA-256 of v's canonical JSON.
func digestJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Errorf("digest: %w", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// mix derives a well-spread 64-bit value from a seed and indexes
// (splitmix64 finalizer over each word).
func mix(seed uint64, xs ...uint64) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for _, x := range append(xs, 0) {
		h += x + 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}
