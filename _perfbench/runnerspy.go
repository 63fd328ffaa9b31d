package main

import (
	"context"
	"math"
	"sync"
	"time"

	"maxwe/internal/runner"
)

// cellTimer times cells from their StatusStart to their StatusDone event;
// at Parallelism 1 the runner emits both from the goroutine that runs the
// cell, so the interval is the cell's compute plus its commit.
type cellTimer struct {
	start map[string]time.Time
	ms    []float64
}

func newCellTimer() *cellTimer { return &cellTimer{start: map[string]time.Time{}} }

func (c *cellTimer) progress(ev runner.Event) {
	switch ev.Status {
	case runner.StatusStart:
		c.start[ev.Key] = time.Now()
	case runner.StatusDone:
		if t0, ok := c.start[ev.Key]; ok {
			c.ms = append(c.ms, msSince(t0))
		}
	}
}

// runnerSpy accumulates what spyRun measures at the runner's seams.
type runnerSpy struct {
	tr      *tracer
	passKey string
	mu      sync.Mutex
	// computeS sums the wall time of every Cell.Run call.
	computeS float64
	// commitMS lists, per cell, the time from its Run returning to its
	// StatusDone event.
	commitMS []float64
	// sweepS lists the wall time of each runner.Run call.
	sweepS []float64
}

// spyRun runs cells through runner.Run with Cell.Run and Config.Progress
// wrapped in spans. It never wraps the simulated components themselves:
// the sim picks its engine path by type assertion, so a decorated
// attack, leveler or scheme would run a different program.
func spyRun[T any](ctx context.Context, w *runnerSpy, cfg runner.Config, cells []runner.Cell[T], timer *cellTimer) (runner.Report[T], error) {
	sweep := w.tr.begin("runner.sweep", w.passKey, 0)
	runEnd := map[string]time.Time{}
	wrapped := make([]runner.Cell[T], len(cells))
	for i, c := range cells {
		inner := c.Run
		c.Run = func(ctx context.Context) (T, error) {
			sp := w.tr.begin("cell.run", c.Key, sweep)
			t0 := time.Now()
			v, err := inner(ctx)
			end := time.Now()
			w.tr.end(sp)
			w.mu.Lock()
			w.computeS += end.Sub(t0).Seconds()
			runEnd[c.Key] = end
			w.mu.Unlock()
			return v, err
		}
		wrapped[i] = c
	}
	cfg.Progress = func(ev runner.Event) {
		timer.progress(ev)
		if ev.Status != runner.StatusDone {
			return
		}
		now := time.Now()
		w.mu.Lock()
		end, ok := runEnd[ev.Key]
		if ok {
			w.commitMS = append(w.commitMS, float64(now.Sub(end).Nanoseconds())/1e6)
		}
		w.mu.Unlock()
		if ok {
			w.tr.record("cell.commit", ev.Key, sweep, end, now)
		}
	}
	t0 := time.Now()
	rep, err := runner.Run(ctx, cfg, wrapped)
	w.tr.end(sweep)
	w.mu.Lock()
	w.sweepS = append(w.sweepS, time.Since(t0).Seconds())
	w.mu.Unlock()
	return rep, err
}

// layers reports the runner metrics of jobs sweeps-worth of work at
// Parallelism 1: mean Cell.Run seconds per job, the median commit wait,
// and the share of runner time not spent in Cell.Run.
func (w *runnerSpy) layers(jobs int) map[string]float64 {
	var sweep float64
	for _, s := range w.sweepS {
		sweep += s
	}
	idle := math.NaN()
	if sweep > 0 {
		idle = 1 - w.computeS/sweep
	}
	return map[string]float64{
		"runner.compute_s":          w.computeS / float64(max(jobs, 1)),
		"runner.commit_wait_ms_p50": reportable(percentile(w.commitMS, 0.5)),
		"runner.idle_share":         idle,
	}
}

// sumSeconds totals the durations of all spans named name, set-up
// included.
func sumSeconds(tr *tracer, name string) float64 {
	var s float64
	for _, sp := range tr.closed() {
		if sp.Name == name {
			s += float64(sp.End-sp.Start) / 1e9
		}
	}
	return s
}

// reportable is a percentile's value, or NaN when the percentile
// discipline omits it; the report prints NaN as an omitted value.
func reportable(t timing) float64 {
	if !t.ok {
		return math.NaN()
	}
	return t.value
}
