// batch.go is the simulator's write loop. Instead of one interface-call
// chain per write (attack → leveler → scheme → device), runBatched pulls
// address batches from attack.BatchAttack, translates them through the
// engine's cached slot→line binding, and indexes the device.Core slices
// directly. Wear-out checks are amortized where they can be: while the
// minimum remaining budget across the bound lines guarantees no line can
// die within an epoch, the unleveled inner loop degenerates to a counter
// increment.
//
// Exactness contract: the loop must produce bit-identical Results to the
// per-write reference engine (see crossval_test.go). The load-bearing
// invariants are documented on spare.Scheme.Access (bindings are pure
// lookups that change only inside OnWearOut, and only for the worn slot)
// and attack.BatchAttack (NextBatch ≡ repeated Next). Configurations that
// break them — PCD's shrinking space, metadata faults rewriting bindings —
// run the per-write inner loop instead.
package sim

import (
	"maxwe/internal/attack"
	"maxwe/internal/spare"
	"maxwe/internal/wearlevel"
)

// epochSize is the batch length of the loop. It equals the cancellation-
// polling granularity of the per-write reference (1024 writes), so epoch
// boundaries land on exactly the user-write indexes where the reference
// polls Config.Done.
const epochSize = 1024

// nextBatcher adapts an Attack without a batched form: NextBatch is, by
// its contract, repeated Next.
type nextBatcher struct{ attack.Attack }

func (a nextBatcher) NextBatch(n int, dst []int) {
	for i := range dst {
		dst[i] = a.Next(n)
	}
}

// runBatched runs cfg on e until failure, the cap, or cancellation. The
// shell handles everything per epoch — the cap, the Done poll, the empty
// space, the address batch — and one inner loop per family serves the
// epoch's writes. The family depends only on the leveler type and the
// fault plan.
func runBatched(cfg Config, e *engine) (userWrites int64, interrupted bool) {
	maxWrites := cfg.MaxUserWrites
	done := cfg.Done
	_, pcd := e.scheme.(*spare.PCDScheme)
	perWrite := e.faults != nil || pcd
	att, batched := cfg.Attack.(attack.BatchAttack)
	if !batched {
		att = nextBatcher{cfg.Attack}
	}

	// Devirtualize the two hot leveler families; every other leveler runs
	// through the interface calls. Identity translates with no call at
	// all, so it shares the unleveled loop, but without the quiescence
	// budget: the unleveled loop tracks it alone.
	var swap *wearlevel.SwapWL
	var perm, credit []int
	direct := false
	switch l := e.lev.(type) {
	case nil, *wearlevel.Identity:
		direct = true
	case *wearlevel.SwapWL:
		swap = l
		perm, credit = l.HotState()
	}
	track := e.lev == nil && !perWrite
	var quiescent int64
	if track {
		quiescent = safeWrites(e)
	}

	batch := make([]int, epochSize)
	for {
		if maxWrites > 0 && userWrites >= maxWrites {
			return userWrites, false
		}
		// userWrites is a multiple of epochSize at every epoch start (a
		// short final epoch only happens at the MaxUserWrites boundary,
		// which returns above), so this polls at exactly the reference
		// loop's userWrites&1023 == 0 indexes.
		if done != nil {
			select {
			case <-done:
				return userWrites, true
			default:
			}
		}
		if e.lines == 0 {
			e.failed = true
			return userWrites, false
		}
		size := epochSize
		if maxWrites > 0 && maxWrites-userWrites < int64(size) {
			size = int(maxWrites - userWrites)
		}
		var served int
		var ok bool
		if perWrite {
			served, ok = perWriteEpoch(cfg.Attack, e, size)
		} else {
			b := batch[:size]
			att.NextBatch(e.lines, b)
			switch {
			case swap != nil:
				served, ok = swapEpoch(b, e, swap, perm, credit)
			case direct:
				served, quiescent, ok = directEpoch(b, e, quiescent, track)
			default:
				served, ok = levelerEpoch(b, e)
			}
		}
		userWrites += int64(served)
		if !ok {
			return userWrites, false
		}
	}
}

// safeWrites returns how many further writes — however they distribute
// over the slots — are guaranteed to wear out no bound line: one less
// than the minimum remaining budget. Recomputed only after wear-outs;
// callers decrement it as epochs retire.
func safeWrites(e *engine) int64 {
	if len(e.slotLine) == 0 {
		return 0
	}
	min := int64(1)<<62 - 1
	for _, line := range e.slotLine {
		if rem := e.core.Endurance[line] - e.core.Writes[line]; rem < min {
			min = rem
		}
	}
	return min - 1
}

// Each inner loop below serves the epoch's writes and returns how many it
// served (the write that fails the device included) and whether the
// device survived them.

// directEpoch serves slots that need no translation: unleveled runs and
// Identity. With track set, quiescent is the safeWrites budget: epochs it
// covers run an unchecked increment-only loop, the rest replicate
// Device.Write inline and refresh the budget after a wear-out.
func directEpoch(b []int, e *engine, quiescent int64, track bool) (int, int64, bool) {
	core, slotLine := e.core, e.slotLine
	size := int64(len(b))
	if quiescent >= size {
		// No bound line can reach its budget within this epoch: skip
		// the wear-out compare entirely.
		for _, u := range b {
			core.Writes[slotLine[u]]++
		}
		core.Total += size
		return len(b), quiescent - size, true
	}
	wore := false
	for i, u := range b {
		line := slotLine[u]
		core.Writes[line]++
		core.Total++
		if core.Writes[line] >= core.Endurance[line] && !core.Worn[line] {
			core.Worn[line] = true
			core.WornLines++
			wore = true
			if !e.wearOut(u) {
				return i + 1, 0, false
			}
		}
	}
	switch {
	case !track:
		return len(b), 0, true
	case wore:
		return len(b), safeWrites(e), true
	}
	// Still a valid lower bound: each write spends at most one unit of
	// any line's remaining budget.
	return len(b), quiescent - size, true
}

// swapEpoch serves the randomized swap levelers on wearlevel.SwapWL's
// shared perm/credit state, with only the rare relocation paying a call.
// Movement writes go through the engine, which keeps slotLine coherent
// across the replacements they trigger.
func swapEpoch(b []int, e *engine, swap *wearlevel.SwapWL, perm, credit []int) (int, bool) {
	core, slotLine := e.core, e.slotLine
	for i, lla := range b {
		u := perm[lla]
		line := slotLine[u]
		core.Writes[line]++
		core.Total++
		if core.Writes[line] >= core.Endurance[line] && !core.Worn[line] {
			core.Worn[line] = true
			core.WornLines++
			if !e.wearOut(u) {
				return i + 1, false
			}
		}
		credit[lla]--
		if credit[lla] <= 0 {
			if !swap.Relocate(lla, e) {
				return i + 1, false
			}
		}
	}
	return len(b), true
}

// levelerEpoch is swapEpoch for any other leveler, through the Leveler
// interface.
func levelerEpoch(b []int, e *engine) (int, bool) {
	core, slotLine, lev := e.core, e.slotLine, e.lev
	for i, lla := range b {
		u := lev.Translate(lla)
		line := slotLine[u]
		core.Writes[line]++
		core.Total++
		if core.Writes[line] >= core.Endurance[line] && !core.Worn[line] {
			core.Worn[line] = true
			core.WornLines++
			if !e.wearOut(u) {
				return i + 1, false
			}
		}
		if !lev.OnWrite(lla, e) {
			return i + 1, false
		}
	}
	return len(b), true
}

// perWriteEpoch serves fault plans and PCD one write at a time through
// the engine's step, drawing each address with Next from the space as it
// stands after any shrink — a batch drawn up front could address slots a
// mid-epoch wear-out has dropped.
func perWriteEpoch(att attack.Attack, e *engine, size int) (int, bool) {
	for i := 0; i < size; i++ {
		if e.lines == 0 {
			e.failed = true
			return i, false
		}
		if !e.step(att.Next(e.lines)) {
			return i + 1, false
		}
	}
	return size, true
}
