// stepper.go provides the trace-driven counterpart of Run: instead of an
// Attack generating addresses internally, the caller feeds logical write
// addresses one at a time. This is how external workloads (file traces, a
// DRAM buffer's write-backs, a fuzzer) drive the simulated stack.
package sim

import "maxwe/internal/device"

// Stepper drives the device + leveler + scheme stack one user write at a
// time. Construct with NewStepper; the Config's Attack field is ignored —
// the caller controls the write stream. Config.MaxUserWrites is honored
// exactly as in Run: once the cap is reached, Write rejects further
// writes, so external drivers cannot overrun truncated experiments.
type Stepper struct {
	cfg        Config
	e          *engine
	userWrites int64
}

// NewStepper validates the configuration (Attack excepted) and assembles
// a fresh stack.
func NewStepper(cfg Config) (*Stepper, error) {
	check := cfg
	if check.Attack == nil {
		// Satisfy validation; the attack is never used.
		check.Attack = nopAttack{}
	}
	if err := check.validate(); err != nil {
		return nil, err
	}
	return &Stepper{cfg: cfg, e: newEngine(cfg)}, nil
}

type nopAttack struct{}

func (nopAttack) Name() string   { return "external" }
func (nopAttack) Next(n int) int { return 0 }

// LogicalLines returns the current size of the logical address space the
// caller should draw addresses from (it shrinks under PCD).
func (s *Stepper) LogicalLines() int { return s.e.lines }

// Failed reports whether the device has failed; further writes are
// rejected.
func (s *Stepper) Failed() bool { return s.e.failed }

// Write performs one user write to logical line lla, folded into the
// current logical space. It returns false once the device has failed
// (including when this very write triggered the unrecoverable wear-out —
// the write itself still counted, matching Run's accounting) or once
// Config.MaxUserWrites writes have been served.
func (s *Stepper) Write(lla int) bool {
	if s.e.failed {
		return false
	}
	if s.cfg.MaxUserWrites > 0 && s.userWrites >= s.cfg.MaxUserWrites {
		return false
	}
	if s.e.lines == 0 {
		s.e.failed = true
		return false
	}
	s.userWrites++
	return s.e.step(lla % s.e.lines)
}

// Result summarizes the writes served so far (callable at any point).
func (s *Stepper) Result() Result {
	return buildResult(s.cfg, s.e, s.userWrites, false)
}

// Device exposes the underlying device for wear inspection.
func (s *Stepper) Device() *device.Device { return s.e.dev }
