package main

import (
	"strings"
	"testing"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order, so quantile must sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{0, 0.5, false},
		{19, 0.5, false}, // rank 9: 9 samples above
		{20, 0.5, false}, // rank 9.5 rounds up to 10: 9 above
		{21, 0.5, true},  // rank 10: 10 above
		{99, 0.9, false},
		{100, 0.9, false}, // rank 89.1 → 90: 9 above
		{101, 0.9, true},  // rank 90: 10 above
		{1000, 0.99, false},
		{1001, 0.99, true},
	}
	for _, c := range cases {
		got := percentile(series(c.n), c.q)
		if got.ok != c.ok {
			t.Errorf("n=%d q=%v: ok=%v, want %v", c.n, c.q, got.ok, c.ok)
		}
		if got.n != c.n {
			t.Errorf("n=%d q=%v: sample count %d", c.n, c.q, got.n)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got := percentile(series(101), 0.5)
	if got.value != 51 || !got.ok {
		t.Fatalf("median of 1..101 = %+v, want 51", got)
	}
	if v, _ := quantile([]float64{1, 2}, 0.5); v != 1.5 {
		t.Fatalf("median of {1,2} = %v, want 1.5", v)
	}
}

func TestTimingPrintsSampleCountAndFlagsOmission(t *testing.T) {
	if s := percentile(series(5), 0.9).String(); !strings.Contains(s, "omitted") || !strings.Contains(s, "n=5") {
		t.Fatalf("short series not flagged: %q", s)
	}
	if s := percentile(series(200), 0.9).String(); strings.Contains(s, "omitted") || !strings.Contains(s, "n=200") {
		t.Fatalf("long series rendered as %q", s)
	}
}
