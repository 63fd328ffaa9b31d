package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile discipline: a percentile is reported only
// when at least this many samples lie strictly above its rank, so a p90
// needs at least 100 samples and a p50 at least 20.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks, and whether enough samples lie
// beyond it to report it. It does not modify xs.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond := n - 1 - hi
	return v, beyond >= minBeyond
}

// median is the 0.5 quantile with no sample-count discipline; it is used
// for set-up repetitions and per-run aggregates, never for latencies.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// timing is one latency series as printed: its percentile, the sample
// count it rests on, and whether the discipline allowed reporting it.
type timing struct {
	value float64
	n     int
	ok    bool
}

func percentile(xs []float64, q float64) timing {
	v, ok := quantile(xs, q)
	return timing{value: v, n: len(xs), ok: ok}
}

// String renders the timing with its sample count, flagging a value the
// discipline omits.
func (t timing) String() string {
	if !t.ok {
		return fmt.Sprintf("omitted (n=%d: fewer than %d samples beyond the percentile)", t.n, minBeyond)
	}
	return fmt.Sprintf("%.4f (n=%d)", t.value, t.n)
}
