// faults.go is the engine's fault-injection write path. When a Config
// carries an enabled faultinject.Plan, every physical write — user traffic
// and wear-leveling movement alike — first draws a fault outcome from the
// plan and the engine responds:
//
//   - metadata faults corrupt one RMT/LMT entry of a scheme that exposes
//     corruptible metadata (Max-WE), then run the integrity scrub that
//     detects the damage and rebuilds the entry from its journal copy;
//   - stuck-at faults kill the target line before its endurance budget is
//     spent, feeding the scheme's replacement procedure early;
//   - transient faults fail the initial write attempt (which still wears
//     the cells) and force retries: each retry re-issues the physical
//     write and charges a bounded exponential backoff delay; a write
//     still failing after RetryPolicy.MaxRetries is escalated to a
//     permanent line failure and replaced.
//
// With no plan armed the engine never touches this file, keeping the
// fault layer a strict no-op for fault-free configurations.
package sim

import "maxwe/internal/xrand"

// MetadataFaulter is implemented by spare schemes whose mapping metadata
// can be corrupted and scrubbed (Max-WE's hybrid RMT/LMT tables). Schemes
// without it silently ignore metadata fault events.
type MetadataFaulter interface {
	// CorruptMetadata injects one metadata fault, returning false when
	// there is no metadata to corrupt.
	CorruptMetadata(src *xrand.Source) bool
	// ScrubMetadata detects and rebuilds corrupted entries, returning how
	// many were repaired.
	ScrubMetadata() int
}

// writeSlotFaulty is WriteSlot with the fault layer armed.
func (e *engine) writeSlotFaulty(u int) bool {
	f := e.faults.Draw()

	if f.Metadata {
		if mf, ok := e.scheme.(MetadataFaulter); ok && mf.CorruptMetadata(e.faults.Src()) {
			e.ctr.MetadataFaults++
			e.ctr.MetadataRepairs += int64(mf.ScrubMetadata())
		}
	}

	line := e.scheme.Access(u)
	if f.StuckAt {
		// A stuck-at fault is discovered by a write attempt, so the
		// attempt is charged to the device before the line is retired
		// early. In the rare case that very attempt exhausts the line's
		// budget it is an ordinary wear-out, not a stuck-at kill.
		natural := e.dev.Write(line)
		if !natural && e.dev.ForceWear(line) {
			e.ctr.StuckAtFaults++
			natural = true
		}
		if natural {
			if u, line = e.rebind(u); e.failed {
				return false
			}
		}
	}

	if f.TransientRetries > 0 {
		e.ctr.TransientFaults++
		// The initial attempt fails transiently but still wears the
		// cells; it can itself be the write that exhausts the line.
		if e.dev.Write(line) {
			if u, line = e.rebind(u); e.failed {
				return false
			}
		}
		demanded := f.TransientRetries
		escalate := demanded > e.retry.MaxRetries
		if escalate {
			demanded = e.retry.MaxRetries
		}
		for i := 0; i < demanded; i++ {
			e.ctr.Retries++
			e.ctr.BackoffUnits += e.retry.Backoff(i)
			// Failed retries wear the cells just like the initial attempt.
			if e.dev.Write(line) {
				if u, line = e.rebind(u); e.failed {
					return false
				}
			}
		}
		if escalate {
			// The write never succeeded within the retry budget: the line
			// is treated as hard-failed and replaced before the final
			// attempt (which targets the fresh spare).
			e.ctr.Escalations++
			if e.dev.ForceWear(line) {
				if u, line = e.rebind(u); e.failed {
					return false
				}
			}
		}
	}

	if e.dev.Write(line) {
		return e.wearOut(u)
	}
	return true
}

// rebind runs the scheme's replacement procedure for slot u's dead
// backing line and re-resolves the slot. On spare exhaustion it marks the
// engine failed. Under PCD the dying slot can be the last one, shrinking
// the user space past u; the in-flight write then folds modulo the new
// capacity, mirroring the Stepper's address folding.
func (e *engine) rebind(u int) (slot, line int) {
	if !e.wearOut(u) {
		return u, 0
	}
	if n := e.scheme.UserLines(); u >= n {
		if n == 0 {
			e.failed = true
			return u, 0
		}
		u %= n
	}
	return u, e.scheme.Access(u)
}
