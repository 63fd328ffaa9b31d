package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"maxwe/internal/sim.(*engine).WriteSlot":                          "maxwe/internal/sim",
		"maxwe/internal/sim.runBatchedLeveled.func1":                      "maxwe/internal/sim",
		"net/http.(*conn).serve":                                          "net/http",
		"encoding/json.(*decodeState).object":                             "encoding/json",
		"syscall.Syscall6":                                                "syscall",
		"runtime.mallocgc":                                                "runtime",
		"maxwe/internal/runner.Run[go.shape.struct { maxwe/x.A string }]": "maxwe/internal/runner",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestCPUSharesAttributesThisPackage decodes a real CPU profile of a busy
// loop in this package.
func TestCPUSharesAttributesThisPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	perPkg, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("profile has no samples")
	}
	var sum int64
	for _, v := range perPkg {
		sum += v
	}
	if sum != total {
		t.Fatalf("shares sum to %d, total %d", sum, total)
	}
	// The loop body and the clock reads it makes dominate the profile.
	if own := perPkg["main"] + perPkg["time"] + perPkg["runtime"]; own*2 < total {
		t.Fatalf("busy loop got %d of %d ns: %v", own, total, perPkg)
	}
}
