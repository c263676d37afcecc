package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile the benchmark takes of itself while a
// traced phase runs.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// Stop ends profiling and returns the CPU seconds attributed to each
// layer (see layerOf).
func (p *cpuProfile) Stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return layerSeconds(p.buf.Bytes())
}

const repoPrefix = "affinityalloc/internal/"

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf classifies a Go package path. Repository packages named in
// layers are their own layer; the runtime is "gc"; the network, HTTP,
// JSON and system-call packages are "wire"; the benchmark itself and its
// profiler are "other". Any other package (a helper such as sort, sync
// or an unlisted repository package) claims nothing, so its samples go
// to the nearest caller that is a layer.
func layerOf(pkg string) (string, bool) {
	switch {
	case strings.HasPrefix(pkg, repoPrefix):
		l := strings.TrimPrefix(pkg, repoPrefix)
		return l, isLayer[l]
	case pkg == "main", pkg == "runtime/pprof", pkg == "runtime/metrics":
		return "other", true
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "encoding/json",
		pkg == "syscall", pkg == "internal/runtime/syscall", pkg == "internal/poll",
		strings.HasPrefix(pkg, "internal/syscall/"):
		return "wire", true
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "gc", true
	}
	return "", false
}

// pkgOf returns the package path of a fully qualified function name,
// e.g. "affinityalloc/internal/engine" for
// "affinityalloc/internal/engine.(*Server).Reserve".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerSeconds decodes a gzipped pprof CPU profile and sums each
// sample's CPU time into the layer of its innermost frame that belongs to
// a layer.
func layerSeconds(gz []byte) (map[string]float64, error) {
	samples, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 { // [samples, cpu nanoseconds]
			continue
		}
		layer := "other"
		for _, fn := range s.stack {
			if l, ok := layerOf(pkgOf(fn)); ok {
				layer = l
				break
			}
		}
		out[layer] += float64(s.values[1]) / 1e9
	}
	return out, nil
}

// profSample is one decoded profile sample: its stack as function names,
// innermost first, and its values in the profile's sample-type order.
type profSample struct {
	stack  []string
	values []uint64
}

// readProfile decodes the samples of a gzipped pprof profile
// (profile.proto: 2 sample, 4 location, 5 function, 6 string_table).
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = append(s.locs, varints(v, b)...)
				case 2: // value
					s.values = append(s.values, varints(v, b)...)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: 1 function_id
					return protoFields(b, func(num int, v uint64, _ []byte) error {
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
		case 5:
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		out[i].values = s.values
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n < uint64(len(strs)) {
					out[i].stack = append(out[i].stack, strs[n])
				}
			}
		}
	}
	return out, nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// each field's number and its varint value or its bytes.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints returns a repeated integer field's values: the packed bytes
// when data is set, else the single unpacked value v.
func varints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
