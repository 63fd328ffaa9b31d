package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"maxwe"
	"maxwe/internal/runner"
	"maxwe/internal/trace"
	"maxwe/internal/xrand"
)

// Trace-replay inputs: a seeded OLTP-like trace over a small device, so
// that a stack replays it to failure in tens of milliseconds and a run
// completes well over a hundred cells.
const (
	replayRecords = 200_000
	replayLines   = 1024
)

// replayStacks is the stack set of one pass: Max-WE and the PS baseline,
// each unleveled and under TLSR, at two seeds.
var replayStacks = []struct{ scheme, wl string }{
	{"max-we", ""}, {"max-we", "tlsr"}, {"ps-worst", ""}, {"ps-worst", "tlsr"},
	{"max-we", ""}, {"max-we", "tlsr"}, {"ps-worst", ""}, {"ps-worst", "tlsr"},
}

// traceReplay replays one decoded trace to device failure through
// maxwe.System.Stepper, one runner cell per stack.
type traceReplay struct {
	tr      *tracer
	seed    uint64
	records []trace.Record
	spy     runnerSpy
}

// writeReplayTrace generates and encodes the run's trace; the program
// only ever sees the encoded file.
func writeReplayTrace(e *env) error {
	g, err := trace.NewGenerator(replayLines, trace.OLTPLike(), xrand.New(mix(e.seed, 0x7ace)))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, g.Generate(replayRecords)); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.work, "trace.txt"), buf.Bytes(), 0o644)
}

func setupReplay(_ context.Context, e *env, tr *tracer) (instance, error) {
	path := filepath.Join(e.work, "trace.txt")
	sp := tr.begin("trace.decode", "", 0)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := trace.Decode(f)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &traceReplay{tr: tr, seed: e.seed, records: records, spy: runnerSpy{tr: tr}}, nil
}

func (t *traceReplay) close() error { return nil }

// stackConfig is stack j of input k.
func (t *traceReplay) stackConfig(k, j int) maxwe.Config {
	cfg := maxwe.DefaultConfig()
	cfg.Regions = replayLines / 16
	cfg.LinesPerRegion = 16
	cfg.MeanEndurance = 1000
	cfg.Scheme = replayStacks[j].scheme
	cfg.WearLeveling = replayStacks[j].wl
	cfg.Seed = mix(t.seed, uint64(k), uint64(j))
	return cfg
}

func (t *traceReplay) cells(k int) []runner.Cell[maxwe.Result] {
	cells := make([]runner.Cell[maxwe.Result], len(replayStacks))
	for j := range replayStacks {
		cfg := t.stackConfig(k, j)
		cells[j] = runner.Cell[maxwe.Result]{
			Key: fmt.Sprintf("stack/%d", j),
			Run: func(ctx context.Context) (maxwe.Result, error) {
				sys, err := maxwe.New(cfg)
				if err != nil {
					return maxwe.Result{}, err
				}
				return replayToFailure(ctx, sys.Stepper(), t.records)
			},
		}
	}
	return cells
}

// replayToFailure loops the trace's writes into the stack until the
// device fails, as cmd/replay does with -loops 0.
func replayToFailure(ctx context.Context, st *maxwe.Stepper, records []trace.Record) (maxwe.Result, error) {
	for !st.Failed() {
		for i, r := range records {
			if i&4095 == 0 && ctx.Err() != nil {
				return maxwe.Result{}, ctx.Err()
			}
			if r.Op != trace.Write {
				continue
			}
			if !st.Write(r.Line) {
				break
			}
		}
	}
	return st.Result(), nil
}

func (t *traceReplay) run(ctx context.Context, d time.Duration, minInputs int) (*phase, error) {
	ph := newPhase(16)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < minInputs || time.Now().Before(deadline); i++ {
		k := i % inputCycle
		timer := newCellTimer()
		t0 := time.Now()
		var rep runner.Report[maxwe.Result]
		var err error
		if t.tr == nil {
			rep, err = runner.Run(ctx, runner.Config{Parallelism: 1, Progress: timer.progress}, t.cells(k))
		} else {
			t.spy.passKey = fmt.Sprintf("pass-%d", i)
			rep, err = spyRun(ctx, &t.spy, runner.Config{Parallelism: 1}, t.cells(k), timer)
		}
		if err != nil {
			return nil, err
		}
		ph.jobMS = append(ph.jobMS, msSince(t0))
		ph.jobs++
		ph.completed()
		ph.cells += len(timer.ms)
		ph.cellMS = append(ph.cellMS, timer.ms...)
		if len(rep.Failed) > 0 {
			ph.fail("pass %d: failed cells %v", i, rep.Failed)
			continue
		}

		results := make([]maxwe.Result, len(replayStacks))
		var counts simCounts
		for j := range replayStacks {
			res := rep.Results[fmt.Sprintf("stack/%d", j)]
			results[j] = res
			counts.add(resultCounts(res))
			if !res.Failed || res.UserWrites <= 0 || res.DeviceWrites < res.UserWrites || res.WornLines == 0 {
				ph.fail("pass %d stack %d: implausible replay result %+v", i, j, res)
			}
		}
		ph.simWrites += counts.UserWrites
		ph.done = append(ph.done, unitDone{at: time.Since(start), cells: len(timer.ms), writes: counts.UserWrites})
		ph.record(k, counts, digestJSON(results))
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func resultCounts(r maxwe.Result) simCounts {
	return simCounts{
		UserWrites:   r.UserWrites,
		DeviceWrites: r.DeviceWrites,
		Wearouts:     int64(r.WornLines),
		SparesUsed:   int64(r.SparesUsed),
	}
}

func (t *traceReplay) layers() map[string]float64 {
	m := t.spy.layers(len(t.spy.sweepS))
	m["trace.decode_s"] = sumSeconds(t.tr, "trace.decode")
	return m
}
