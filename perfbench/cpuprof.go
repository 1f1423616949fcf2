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

// runLabel is the pprof label key set on every simulation call of a traced
// pass; only samples carrying it count toward the CPU-share table.
const runLabel = "perfbench_run"

// cpuPackages are the layers the CPU-share table reports, in order. A
// sample is charged to the package of its innermost frame; runtime frames
// (GC, allocation, map lookups) are "goruntime", and everything else, the
// standard library included, is "other".
var cpuPackages = []string{"vm", "tip", "cache", "disk", "cow", "core", "sim", "multi", "cluster", "goruntime", "other"}

// cpuShares decodes a gzipped pprof CPU profile and returns each package's
// share, in percent, of the samples labelled runLabel, plus their count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}

	labelKey := -1
	for i, s := range prof.strings {
		if s == runLabel {
			labelKey = i
		}
	}
	funcPkg := map[uint64]string{}
	for id, nameIdx := range prof.funcName {
		if nameIdx >= 0 && int(nameIdx) < len(prof.strings) {
			funcPkg[id] = layerOf(prof.strings[nameIdx])
		}
	}
	count := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		if !s.labelled(int64(labelKey)) || len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample count
		pkg := "other"
		if fid, ok := prof.locFunc[s.locs[0]]; ok {
			pkg = funcPkg[fid]
		}
		count[pkg] += n
		total += n
	}
	shares := map[string]float64{}
	for _, p := range cpuPackages {
		shares[p] = pct(count[p], total)
	}
	return shares, total, nil
}

// layerOf maps a fully qualified Go function name to its layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "goruntime"
	}
	const prefix = "spechint/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "other"
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, p := range cpuPackages {
		if p == pkg {
			return p
		}
	}
	return "other"
}

// profile holds the parts of a pprof profile.proto message the share table
// needs.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs     []uint64
	values   []int64
	labelKey []int64
}

func (s sample) labelled(key int64) bool {
	for _, k := range s.labelKey {
		if k == key {
			return true
		}
	}
	return false
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3
	labelKeyField    = 1

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSample:
			s, err := decodeSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == locationID:
					id = v
				case num == locationLine && !seenLine:
					// The first line is the innermost of any inlined frames.
					seenLine = true
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case sampleLocationID:
			return eachUint(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
		case sampleValue:
			return eachUint(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
		case sampleLabel:
			return eachField(data, func(num, wire int, v uint64, _ []byte) error {
				if num == labelKeyField {
					s.labelKey = append(s.labelKey, int64(v))
				}
				return nil
			})
		}
		return nil
	})
	return s, err
}

// eachUint yields a repeated integer field, packed or not.
func eachUint(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == wireVarint {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errBadProto = errors.New("cpu profile: malformed protobuf")

// eachField walks the fields of one protobuf message, passing varints in v
// and length-delimited payloads in data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
