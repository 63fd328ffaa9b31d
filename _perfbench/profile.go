package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares attributes the samples of a runtime/pprof CPU profile to
// packages by the leaf frame's function, and to "gc" when any frame of
// the stack belongs to the garbage collector. It decodes the gzipped
// profile.proto directly, so the benchmark needs nothing beyond the
// standard library. It returns the CPU nanoseconds per package and the
// total.
func cpuShares(gz []byte) (perPkg map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		samples   [][]uint64              // location ids, leaf first
		sampleVal []int64                 // value of the last sample type (cpu ns)
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("profile: sample without values")
			}
			samples = append(samples, locs)
			sampleVal = append(sampleVal, vals[len(vals)-1])
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		i := funcName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	perPkg = map[string]int64{}
	for i, locs := range samples {
		v := sampleVal[i]
		total += v
		pkg := ""
		for j, loc := range locs {
			for k, fn := range locFuncs[loc] {
				f := name(fn)
				if j == 0 && k == 0 {
					pkg = packageOf(f)
				}
				if gcRoots[f] {
					pkg = "gc"
				}
			}
			if pkg == "gc" {
				break
			}
		}
		perPkg[pkg] += v
	}
	return perPkg, total, nil
}

// gcRoots are the runtime entry points whose stacks are garbage-collector
// work: background marking and sweeping, and allocation-time assists.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
}

// packageOf returns the import path of a fully qualified Go function
// name, e.g. "maxwe/internal/sim" for "maxwe/internal/sim.(*engine).run"
// and "net/http" for "net/http.(*conn).serve". Generic type arguments,
// which can themselves contain slashes, are ignored.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and the varint value or the
// length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
