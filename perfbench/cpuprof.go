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

// cpuProfile collects runtime/pprof CPU profiles of the traced passes
// and charges each sample to a layer.
type cpuProfile struct {
	cur      *bytes.Buffer
	profiles [][]byte
}

func (c *cpuProfile) start() error {
	c.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(c.cur); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// stop ends the profile started last; later calls do nothing.
func (c *cpuProfile) stop() {
	if c.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	c.profiles = append(c.profiles, c.cur.Bytes())
	c.cur = nil
}

// shares returns each layer's fraction of all CPU samples, and the
// sample count. A sample is charged to its innermost frame in this
// repository's module; Go runtime and standard-library frames count
// toward the repository caller beneath them. Samples with no
// repository frame at all (garbage-collector workers, the network
// poller) are charged to "runtime".
func (c *cpuProfile) shares() (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total int64
	for _, data := range c.profiles {
		p, err := parseProfile(data)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			layer := "runtime"
		stack:
			for _, loc := range s.locs {
				for _, fn := range p.locFuncs[loc] {
					if l, ok := layerOf(p.funcName(fn)); ok {
						layer = l
						break stack
					}
				}
			}
			counts[layer] += s.count
			total += s.count
		}
	}
	out := map[string]float64{}
	for l, n := range counts {
		out[l] = float64(n) / float64(total)
	}
	return out, total, nil
}

const modulePath = "github.com/hpcbench/beff/"

// layerOf maps a function symbol to the repository package that
// defines it: "internal/des.(*Proc).SleepUntil" is layer des, this
// benchmark's own frames (package main) are layer bench, and anything
// outside the module is not a layer.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return "", false
	}
	// Repository package paths hold no dots, so the first one ends
	// the path even when a generic instantiation adds more slashes.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	switch {
	case strings.HasPrefix(rest, "internal/"):
		return strings.TrimPrefix(rest, "internal/"), true
	}
	return rest, true
}

// profile is the part of a pprof protobuf this benchmark reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost inlined first
	funcs    map[uint64]int64    // function id → name index
	strs     []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes a gzipped profile.proto: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // samples/count
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
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
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
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
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// appendVarints appends a repeated integer field in either encoding:
// one unpacked value, or a packed run of varints.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
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
