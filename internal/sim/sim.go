// Package sim is the NVMsim reproduction: the discrete lifetime simulator
// the paper evaluates with (Section 5.1). It couples an attack's logical
// write stream, a wear-leveling substrate, a spare-line replacement scheme
// and the physical device, and measures how many user writes the stack
// serves before the device fails.
//
// The engine simulates every write. Because lifetime is reported
// normalized (user writes / Σ line endurance) it is scale-invariant, so
// experiments run on scaled-down profiles (tens of thousands of lines,
// thousands of writes per line) that the engine handles in milliseconds
// to seconds.
//
// RunDetailed drives one epoch loop (batch.go) whose inner loop is chosen
// only from the leveler type and the fault plan; Stepper feeds external
// write streams through the same one-write step. Tests cross-validate
// both against an in-test copy of the original per-write loop.
package sim

import (
	"errors"
	"fmt"

	"maxwe/internal/attack"
	"maxwe/internal/device"
	"maxwe/internal/endurance"
	"maxwe/internal/faultinject"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
)

// EngineSchemaVersion versions the observable semantics of the
// simulation engine — the mapping from a configuration to its bit-exact
// result. It is baked into every content-addressed cache key
// (internal/memo), so bump it whenever a change alters any computed
// result (engine algorithms, scheme or leveler behavior, RNG streams,
// result fields): stale entries then miss instead of being served.
// Pure refactors that keep results bit-identical — the norm in this
// repository, enforced by the cross-validation tests — do not bump it.
const EngineSchemaVersion = 1

// Config assembles one simulation run. Profile, Scheme and Attack are
// mandatory. Leveler is optional: nil means no wear leveling, with the
// attack addressing the scheme's (possibly shrinking) user space directly —
// the only mode that supports the PCD scheme, whose capacity changes over
// time.
type Config struct {
	Profile *endurance.Profile
	Scheme  spare.Scheme
	Leveler wearlevel.Leveler
	Attack  attack.Attack

	// MaxUserWrites caps the run (0 = no cap). The engine terminates
	// regardless because every user write consumes at least one unit of
	// finite device budget; the cap exists for truncated experiments.
	MaxUserWrites int64

	// Faults, when non-nil and enabled, injects the configured fault plan
	// into every physical write (see internal/faultinject and faults.go).
	// A nil or all-zero plan is a strict no-op: the engine takes the
	// exact pre-fault write path.
	Faults *faultinject.Plan
	// Retry bounds the engine's response to transient write failures.
	// The zero value selects faultinject.DefaultRetryPolicy. Ignored
	// unless Faults is enabled.
	Retry faultinject.RetryPolicy

	// Done, when non-nil, makes the run cancelable: the engine polls the
	// channel every 1024 user writes and stops early once it is closed,
	// returning the partial result with Interrupted set. Polling changes
	// neither the loop that runs nor the result of an uncanceled run.
	Done <-chan struct{}
}

// Result reports one lifetime measurement. Results are checkpointed and
// fingerprinted as JSON by the runner and nvmd, so every field pins its
// wire name explicitly (the maxwelint jsonschema rule enforces this).
type Result struct {
	// UserWrites is the number of user writes served before failure.
	UserWrites int64 `json:"UserWrites"`
	// DeviceWrites counts all physical writes, including wear-leveling
	// movement and replacement redirections.
	DeviceWrites int64 `json:"DeviceWrites"`
	// NormalizedLifetime is UserWrites / Σ line endurance — the paper's
	// lifetime metric.
	NormalizedLifetime float64 `json:"NormalizedLifetime"`
	// WriteAmplification is DeviceWrites / UserWrites (1.0 when no
	// leveler runs).
	WriteAmplification float64 `json:"WriteAmplification"`
	// WornLines is how many physical lines wore out.
	WornLines int `json:"WornLines"`
	// SparesUsed is how many spare allocations the scheme performed.
	SparesUsed int `json:"SparesUsed"`
	// Failed is true when the device actually failed; false when the run
	// stopped at MaxUserWrites.
	Failed bool `json:"Failed"`
	// Interrupted is true when the run was canceled through Config.Done
	// before failing or reaching MaxUserWrites.
	Interrupted bool `json:"Interrupted"`
	// Faults counts injected faults per class (all zero when no fault
	// plan ran).
	Faults faultinject.Counters `json:"Faults"`
}

var (
	errNilProfile = errors.New("sim: Config.Profile is nil")
	errNilScheme  = errors.New("sim: Config.Scheme is nil")
	errNilAttack  = errors.New("sim: Config.Attack is nil")
)

func (c Config) validate() error {
	if c.Profile == nil {
		return errNilProfile
	}
	if c.Scheme == nil {
		return errNilScheme
	}
	if c.Attack == nil {
		return errNilAttack
	}
	if c.Leveler != nil {
		if _, pcd := c.Scheme.(*spare.PCDScheme); pcd {
			return errors.New("sim: PCD's shrinking capacity requires Leveler == nil")
		}
		if c.Leveler.LogicalLines() > c.Scheme.UserLines() {
			return fmt.Errorf("sim: leveler logical space %d exceeds scheme user space %d",
				c.Leveler.LogicalLines(), c.Scheme.UserLines())
		}
	}
	if c.MaxUserWrites < 0 {
		return errors.New("sim: MaxUserWrites must be >= 0")
	}
	if c.Faults.Enabled() && c.Retry != (faultinject.RetryPolicy{}) {
		if err := c.Retry.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// engine is the simulated stack below the attack: device, optional
// leveler and spare scheme. It implements wearlevel.Mover so relocation
// traffic flows through the same wear-out handling as user traffic.
type engine struct {
	dev    *device.Device
	core   *device.Core
	scheme spare.Scheme
	lev    wearlevel.Leveler
	failed bool

	// lines is the logical address space writes draw from: the leveler's
	// (fixed for the run) or, unleveled, the scheme's user capacity, which
	// changes only inside OnWearOut (PCD's shrink) where wearOut refreshes
	// it.
	lines int
	// slotLine caches scheme.Access for every user slot. Bindings change
	// only inside OnWearOut, and only for the worn slot, so wearOut keeps
	// the cache exact. It is nil when a fault plan is armed: metadata
	// faults rewrite bindings behind the scheme's back.
	slotLine []int32

	// Fault layer (nil faults = the exact pre-fault write path; see
	// faults.go).
	faults *faultinject.Plan
	retry  faultinject.RetryPolicy
	ctr    faultinject.Counters
}

var _ wearlevel.Mover = (*engine)(nil)

// newEngine assembles a fresh stack for cfg, arming the fault layer only
// when the config carries an enabled plan.
func newEngine(cfg Config) *engine {
	dev := device.New(cfg.Profile)
	e := &engine{dev: dev, core: dev.Core(), scheme: cfg.Scheme, lev: cfg.Leveler}
	e.lines = cfg.Scheme.UserLines()
	if cfg.Leveler != nil {
		e.lines = cfg.Leveler.LogicalLines()
	}
	if cfg.Faults.Enabled() {
		e.faults = cfg.Faults
		e.retry = cfg.Retry
		if e.retry == (faultinject.RetryPolicy{}) {
			e.retry = faultinject.DefaultRetryPolicy()
		}
	} else {
		e.slotLine = make([]int32, cfg.Scheme.UserLines())
		for u := range e.slotLine {
			e.slotLine[u] = int32(cfg.Scheme.Access(u))
		}
	}
	return e
}

// WriteSlot performs one physical write backing user slot u. On a wear-out
// transition it runs the scheme's replacement procedure; if the scheme is
// out of spares the device has failed and WriteSlot returns false.
func (e *engine) WriteSlot(u int) bool {
	if e.faults != nil {
		return e.writeSlotFaulty(u)
	}
	if e.core.Write(int(e.slotLine[u])) {
		return e.wearOut(u)
	}
	return true
}

// wearOut runs the replacement procedure for slot u, whose backing line
// has just been marked worn, and refreshes the hoisted scheme state.
// Returns false on device failure (e.failed is set).
func (e *engine) wearOut(u int) bool {
	if !e.scheme.OnWearOut(u) {
		e.failed = true
		return false
	}
	n := e.scheme.UserLines()
	if e.lev == nil {
		e.lines = n
	}
	// Under PCD the worn slot can be the last one: the shrink drops it
	// and no binding is left to refresh (Access(u) would panic).
	if e.slotLine != nil && u < n {
		e.slotLine[u] = int32(e.scheme.Access(u))
	}
	return true
}

// step performs one user write to logical line lla in [0, e.lines):
// translation, the physical write, and the leveler's remap scheduling.
// It returns false once the device has failed. The write that exhausts a
// line's budget still completes (the replacement procedure runs
// afterwards), so callers count it as served even when step fails.
func (e *engine) step(lla int) bool {
	if e.lev == nil {
		return e.WriteSlot(lla)
	}
	if !e.WriteSlot(e.lev.Translate(lla)) {
		return false
	}
	return e.lev.OnWrite(lla, e)
}

// Run executes the configured simulation until device failure or the
// user-write cap.
func Run(cfg Config) (Result, error) {
	res, _, err := RunDetailed(cfg)
	return res, err
}

// RunDetailed is Run plus the simulated device in its final wear state,
// for analyses that need per-line wear (histograms, spread metrics).
func RunDetailed(cfg Config) (Result, *device.Device, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, nil, err
	}
	e := newEngine(cfg)
	userWrites, interrupted := runBatched(cfg, e)
	return buildResult(cfg, e, userWrites, interrupted), e.dev, nil
}

func buildResult(cfg Config, e *engine, userWrites int64, interrupted bool) Result {
	r := Result{
		UserWrites:         userWrites,
		DeviceWrites:       e.dev.TotalWrites(),
		NormalizedLifetime: float64(userWrites) / cfg.Profile.Sum(),
		WornLines:          e.dev.WornCount(),
		SparesUsed:         cfg.Scheme.SpareLinesUsed(),
		Failed:             e.failed,
		Interrupted:        interrupted,
		Faults:             e.ctr,
	}
	if userWrites > 0 {
		r.WriteAmplification = float64(e.dev.TotalWrites()) / float64(userWrites)
	}
	return r
}
