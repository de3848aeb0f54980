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

// The traced run's CPU profile is read with a small decoder of the pprof
// protobuf format (only the fields needed to name each sample's frames),
// since the module depends on the standard library alone.

// cpuGroups are the cpu_share.* groups, in report order: the repository's
// packages on the served path, then the platform groups.
var cpuGroups = []string{
	"core", "index", "bitvec", "itemsets", "lp", "estimate", "dataset", "compact",
	"serve", "shard", "obsv", "json", "http", "runtime", "other",
}

// platformGroups sit under every handler goroutine, so they are charged by
// the innermost frame only.
var platformGroups = map[string]bool{"json": true, "http": true, "runtime": true, "other": true}

// groupOf maps a function name to its cpu_share group: a standout/internal
// package by its last path element, the JSON codec, the network stack, the
// Go runtime, or other.
func groupOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name other packages in brackets
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "standout/internal/"):
		g := strings.TrimPrefix(pkg, "standout/internal/")
		for _, c := range cpuGroups {
			if c == g {
				return g
			}
		}
		return "other"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/") || pkg == "net" ||
		pkg == "bufio" || pkg == "internal/poll" || pkg == "syscall":
		return "http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuTimes decodes a gzipped pprof CPU profile and returns each group's
// sampled CPU time and the total, in ns. A repository package's time counts
// every sample with one of its functions anywhere on the stack (pprof's
// cum), so the estimator's includes the itemset mining it calls; a platform
// group's counts the samples whose innermost frame is in it.
func cpuTimes(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64 // innermost first
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function ids, innermost inlined frame first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := fields(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendRepeated(locs, wt, v, b)
				case 2:
					vals = appendRepeated(vals, wt, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	group := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return groupOf(strs[i])
		}
		return "other"
	}
	out := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		v := float64(s.value)
		total += v
		seen := map[string]bool{}
		for i, loc := range s.locs {
			for j, fn := range locFns[loc] {
				g := group(fn)
				leaf := i == 0 && j == 0
				if seen[g] || platformGroups[g] && !leaf {
					continue
				}
				seen[g] = true
				out[g] += v
			}
		}
	}
	return out, total, nil
}

// appendRepeated adds a repeated varint field, packed or not.
func appendRepeated(xs []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return xs
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling f with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
