package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler holds a CPU profile in memory while it runs.
type profiler struct {
	buf bytes.Buffer
	raw []byte
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// cpuSample is one profile sample's leaf function and its sample count.
type cpuSample struct {
	leaf  string
	count int64
}

// stop ends the profile and returns its samples by leaf function.
func (p *profiler) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	p.raw = p.buf.Bytes()
	return parseProfile(p.raw)
}

// parseProfile decodes the leaf function of every sample of a gzipped
// pprof profile — just the fields that needs (profile.proto: sample = 2,
// location = 4, function = 5, string_table = 6).
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		loc   uint64
		count int64
	}
	var samples []rawSample
	locFunc := map[uint64]uint64{}  // location id → leaf function id
	funcName := map[uint64]uint64{} // function id → string index
	var strs []string
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1 && first:
					first = false
					if b != nil {
						v, _ = uvarint(b)
					}
					s.loc = v
				case num == 2 && s.count == 0:
					if b != nil {
						v, _ = uvarint(b)
					}
					s.count = int64(v)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && fn == 0:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		name := "unknown"
		if i, ok := funcName[locFunc[s.loc]]; ok && int(i) < len(strs) {
			name = strs[i]
		}
		out = append(out, cpuSample{leaf: name, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField walks a protobuf message, passing varint fields as v and
// length-delimited fields as b; fixed-width fields are skipped.
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n == 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n == 0 {
				return errTruncated
			}
			data = data[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(data) < w {
				return errTruncated
			}
			data = data[w:]
		case 2:
			l, n := uvarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// runtimeGC and runtimeMalloc name the runtime functions whose samples count
// as garbage collection and as allocation.
var (
	runtimeGC = []string{"gc", "scan", "mark", "sweep", "greyobject", "findObject",
		"heapBits", "wbBuf", "spanOf", "typePointers", "bgscavenge", "scavenge"}
	runtimeMalloc = []string{"mallocgc", "nextFree", "memclrNoHeapPointers", "newobject", "growslice",
		"makeslice", "makemap", "rawstring", "rawbyteslice", "mcache", "mcentral", "mheap", "allocSpan", "newarray"}
)

// cpuCategory maps a leaf function name to the cpu.* metric it counts
// toward: a repository package, the runtime split into GC, allocation and
// the rest, the standard library, or other.
func cpuCategory(fn string, known map[string]bool) string {
	if rest, ok := strings.CutPrefix(fn, "diode/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if known[pkg] {
			return pkg
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, k := range runtimeMalloc {
			if strings.Contains(rest, k) {
				return "runtime_malloc"
			}
		}
		for _, k := range runtimeGC {
			if strings.Contains(rest, k) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	}
	pkgPath, _, _ := strings.Cut(fn, ".")
	if !strings.Contains(strings.SplitN(pkgPath, "/", 2)[0], ".") && pkgPath != "main" && pkgPath != "diode" {
		return "stdlib"
	}
	return "other"
}
