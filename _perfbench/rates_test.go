package main

import (
	"testing"
	"time"
)

func TestGroupRatesHoldWholeRuns(t *testing.T) {
	// 35 units of 4-unit runs: 8 whole runs, then 3 units left over.
	var done []unitDone
	for i := 0; i < 35; i++ {
		done = append(done, unitDone{at: time.Duration(i+1) * time.Second, cells: 2, writes: 10})
	}
	writes, cells, units := groupRates(done, 4)
	if len(units) != rateGroups {
		t.Fatalf("%d groups, want %d", len(units), rateGroups)
	}
	for k := range units {
		// Each group is one run of 4 units completing one a second.
		if units[k] != 1 || cells[k] != 2 || writes[k] != 10 {
			t.Errorf("group %d: %v units/s, %v cells/s, %v writes/s; want 1, 2, 10", k, units[k], cells[k], writes[k])
		}
	}

	// Fewer whole runs than groups: one group per run.
	if _, _, units := groupRates(done[:12], 4); len(units) != 3 {
		t.Errorf("12 units of 4-unit runs: %d groups, want 3", len(units))
	}
	// groupOf 0 or 1 groups single units.
	if _, _, units := groupRates(done[:5], 0); len(units) != 5 {
		t.Errorf("5 single units: %d groups, want 5", len(units))
	}
}
