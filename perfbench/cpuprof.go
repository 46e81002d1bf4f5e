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

// This file reads a runtime/pprof CPU profile from outside the program and
// splits its samples by layer. The standard library writes profiles but has
// no reader, so the few profile.proto fields the split needs are decoded by
// hand: samples (location ids, values), locations (inlined lines, innermost
// first), functions (name) and the string table.

// cpuModules are the repo modules a sample can be charged to, by the last
// element of the package path under repro/internal/, then by the first.
var cpuModules = []string{
	"sim", "sagert", "funclib", "isspl", "mpi", "machine", "alter", "gluegen",
	"atot", "twin", "rtl", "serve", "stream", "trace", "fault",
	"model", "handcoded", "codegen",
}

// cpuBuckets are every bucket the split reports, as cpu.<bucket>.
var cpuBuckets = append(append([]string{}, cpuModules...),
	"rt_alloc", "rt_copy", "rt_sched", "rt_gc", "rt_other", "other")

// stackSample is one profile sample: its stack as function names, leaf
// first, and its weight (CPU nanoseconds, or a sample count).
type stackSample struct {
	stack  []string
	weight int64
}

// cpuSplit returns each bucket's share of the profile's total weight.
func cpuSplit(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.weight) / float64(total)
	}
	return out
}

// bucketOf charges a stack: a leaf frame in the Go runtime goes to one of
// the rt_* buckets by what it does; otherwise the innermost repro/internal
// frame names the module; a stack with neither is "other".
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if pkg, fn := splitFunc(stack[0]); isRuntimePkg(pkg) {
		return runtimeClass(fn)
	}
	for _, f := range stack {
		pkg, _ := splitFunc(f)
		rel, ok := strings.CutPrefix(pkg, "repro/internal/")
		if !ok {
			continue
		}
		parts := strings.Split(rel, "/")
		for _, cand := range []string{parts[len(parts)-1], parts[0]} {
			for _, m := range cpuModules {
				if cand == m {
					return m
				}
			}
		}
		return "other"
	}
	return "other"
}

// splitFunc splits a symbol such as "repro/internal/sim.(*Kernel).Run" into
// its package path and the rest.
func splitFunc(sym string) (pkg, fn string) {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym, ""
	}
	return sym[:slash+1+dot], sym[slash+1+dot+1:]
}

// isRuntimePkg reports whether a leaf frame is the Go runtime. System calls
// are the program's I/O, not runtime work, and are charged like any other
// leaf.
func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		(strings.HasPrefix(pkg, "internal/runtime/") && pkg != "internal/runtime/syscall")
}

// Runtime leaf functions by what they spend time on. Checked in order, so an
// allocator name containing "gc" (mallocgc) is allocation, and a sweeper
// name containing "lock" ((*sweepLocked).sweep) is collection.
var runtimeClasses = []struct {
	bucket string
	marks  []string
}{
	{"rt_copy", []string{"memmove", "typedmemmove", "typedslicecopy", "slicecopy"}},
	{"rt_alloc", []string{"malloc", "memclr", "(*mheap)", "(*mcache)", "(*mcentral)",
		"makeslice", "newobject", "newarray", "growslice", "makemap", "(*pageAlloc)",
		"sysAlloc", "sysUsed", "sysMap", "nextFreeFast", "heapSetType", "heapBits", "HeapBits",
		"(*fixalloc)", "persistentalloc", "nextFreeIndex", "refillAllocCache",
		"rawbyteslice", "rawstring", "publicationBarrier", "profilealloc"}},
	{"rt_gc", []string{"gc", "GC", "mark", "Mark", "scan", "sweep", "grey", "findObject",
		"Barrier", "wbBuf", "scavenge", "madvise", "assist", "typePointers", "spanOf"}},
	{"rt_sched", []string{"select", "sellock", "selunlock", "chansend", "chanrecv",
		"chanparkcommit", "closechan", "park_m", "gopark", "goready", "ready",
		"schedule", "findRunnable", "runq", "casgstatus", "lock", "unlock", "futex",
		"note", "mcall", "gogo", "execute", "newproc", "goexit", "gfget", "gfput",
		"stealWork", "usleep", "osyield", "procyield", "wakep", "startm", "stopm",
		"handoffp", "mPark", "semacquire", "semrelease", "acquirep", "releasep",
		"gosched", "Gosched", "Sudog", "(*waitq)", "resetspinning", "checkTimers"}},
}

func runtimeClass(fn string) string {
	for _, c := range runtimeClasses {
		for _, m := range c.marks {
			if strings.Contains(fn, m) {
				return c.bucket
			}
		}
	}
	return "rt_other"
}

// parseProfile decodes a gzip-compressed profile.proto into stack samples.
// The weight is the last sample value (CPU nanoseconds in a CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, weight: s.values[len(s.values)-1]})
	}
	return out, nil
}

// appendVarints adds a repeated varint field, packed (wire type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
