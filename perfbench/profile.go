package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The reader below decodes the few fields attribution needs with the
// protobuf wire format directly, so the benchmark needs no module beyond
// the standard library.

// profile is a decoded CPU profile: one stack per sample, leaf first.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, innermost (leaf) first
	value int64    // CPU nanoseconds (or the last sample value)
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2

	fValueTypeType = 1
)

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []rawSample
		sampleTypes []int64                 // string indices of each value's type
		locFuncs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function -> string index
		strs        []string
	)
	err := walkFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := walkFields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case fProfileSample:
			var s rawSample
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return "?"
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); prefer the
	// nanoseconds, fall back to the last value for other profiles.
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	p := &profile{}
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without the expected value")
		}
		ps := profSample{value: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, b the bytes of a length-delimited one.
func walkFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field, or a packed run of values.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// attribution is a profile grouped by layer.
type attribution struct {
	total int64
	// layer charges each sample to the layer of its innermost frame in
	// this repository, so runtime frames (channel handoffs, malloc) count
	// for the layer that called into the runtime; samples with no repo
	// frame (the scheduler on its own stack, GC workers, this benchmark)
	// go to "runtime". The layers partition the samples.
	layer map[string]int64
	// leafPkg groups samples by the package of their leaf function, the
	// grouping `go tool pprof -top` uses for flat time.
	leafPkg map[string]int64
	// Cross-cutting rows: runtime goroutine handoff, runtime malloc and
	// GC, and the cluster's epoch/barrier/link code inside sim.
	handoff, gc, cluster int64
}

const repoPrefix = "repro/internal/"

// layerOf maps a package path of this repository to its layer.
func layerOf(pkg string) (string, bool) {
	if !strings.HasPrefix(pkg, repoPrefix) {
		return "", false
	}
	switch rest := strings.TrimPrefix(pkg, repoPrefix); rest {
	case "sim", "kernel", "ipc", "load", "faults", "stats":
		return rest, true
	case "core", "codoms", "mem":
		return "core", true
	case "apps/oltp":
		return "oltp", true
	case "apps/netpipe":
		return "netpipe", true
	}
	return "other", true
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sim.(*Engine).Step" or "runtime.gopark".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// Runtime functions that mark a sample as malloc/GC or as goroutine
// handoff, matched against the runtime frames nearest the leaf.
var (
	gcFrames = []string{"mallocgc", "newobject", "newarray", "growslice", "makeslice", "makemap",
		"gcBgMarkWorker", "gcDrain", "gcAssist", "gcStart", "gcMark", "gcSweep", "scanobject",
		"scanblock", "scanstack", "markroot", "greyobject", "bgsweep", "bgscavenge", "sweepone",
		"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*sweepLocked)",
		"wbBuf", "gcWriteBarrier", "bulkBarrierPreWrite"}
	handoffFrames = []string{"gopark", "goready", "ready", "park_m", "schedule", "findRunnable",
		"execute", "gogo", "mcall", "chansend", "chanrecv", "selectgo", "runqget", "runqput",
		"runqgrab", "wakep", "startm", "stopm", "notesleep", "notewakeup", "futex", "goschedImpl",
		"gosched_m", "Gosched", "casgstatus", "resetspinning", "mPark", "newproc", "goexit"}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func matchesAny(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute groups the samples of p by layer.
func attribute(p *profile) attribution {
	a := attribution{layer: map[string]int64{}, leafPkg: map[string]int64{}}
	for _, s := range p.samples {
		a.total += s.value
		if len(s.stack) > 0 {
			a.leafPkg[funcPackage(s.stack[0])] += s.value
		}
		layer := "runtime"
		for _, fn := range s.stack {
			if l, ok := layerOf(funcPackage(fn)); ok {
				layer = l
				if l == "sim" && matchesAny(strings.TrimPrefix(fn, repoPrefix+"sim."), []string{"(*Cluster)", "(*Link)", "(*Shard)"}) {
					a.cluster += s.value
				}
				break
			}
		}
		a.layer[layer] += s.value
		for _, fn := range s.stack {
			pkg := funcPackage(fn)
			if !isRuntime(pkg) {
				break
			}
			short := strings.TrimPrefix(fn, pkg+".")
			if matchesAny(short, gcFrames) {
				a.gc += s.value
				break
			}
			if matchesAny(short, handoffFrames) {
				a.handoff += s.value
				break
			}
		}
	}
	return a
}

// shares returns every profile metric as a share of all samples.
func (a attribution) shares() map[string]float64 {
	out := map[string]float64{}
	share := func(v int64) float64 {
		if a.total == 0 {
			return 0
		}
		return float64(v) / float64(a.total)
	}
	for _, l := range profileLayers {
		out[l+".cpu_share"] = share(a.layer[l])
	}
	out["sim.handoff_share"] = share(a.handoff)
	out["gc.cpu_share"] = share(a.gc)
	out["sim.cluster_share"] = share(a.cluster)
	return out
}
