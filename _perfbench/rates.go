package main

import (
	"sort"
	"time"
)

// rateGroups is how many consecutive groups of completed units a run's
// throughput is split into; the reported throughput is the median of
// the groups' rates, so a burst of host contention in one part of a run
// moves one group, not the figure.
const rateGroups = 8

// groupRates splits the completed units, in completion order, into at
// most rateGroups groups of equal size and returns each group's rates:
// simulated writes, cells and units per second over the time from the
// previous group's last completion to its own. When groupOf is above 1,
// every group holds whole runs of groupOf units, and a trailing partial
// run is left out.
func groupRates(done []unitDone, groupOf int) (writes, cells, units []float64) {
	d := append([]unitDone(nil), done...)
	sort.Slice(d, func(i, j int) bool { return d[i].at < d[j].at })
	groupOf = max(groupOf, 1)
	runs := len(d) / groupOf
	g := min(rateGroups, runs)
	var prev time.Duration
	for k := 0; k < g; k++ {
		lo, hi := k*runs/g*groupOf, (k+1)*runs/g*groupOf
		var w int64
		var c int
		for _, u := range d[lo:hi] {
			w += u.writes
			c += u.cells
		}
		secs := (d[hi-1].at - prev).Seconds()
		prev = d[hi-1].at
		if secs <= 0 {
			continue
		}
		writes = append(writes, float64(w)/secs)
		cells = append(cells, float64(c)/secs)
		units = append(units, float64(hi-lo)/secs)
	}
	return writes, cells, units
}
