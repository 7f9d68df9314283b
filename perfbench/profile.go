package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: enough of the profile.proto schema to recover each sample's
// count, its stack as function names (leaf first) and its string labels.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

type profSample struct {
	count  int64
	stack  []string
	labels map[string]string
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(data []byte) ([]profSample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		value  int64
		labels [][2]int64
	}
	var (
		strs    []string
		samples []rawSample
		locFn   = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profStringField:
			strs = append(strs, string(b))
		case profSampleField:
			var s rawSample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					if first {
						vals := appendVarints(nil, w, v, b)
						if len(vals) > 0 {
							s.value, first = int64(vals[0]), false
						}
					}
				case 3:
					var key, str int64
					if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
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
			locFn[id] = fns
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
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
			fnName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		ps := profSample{count: s.value, labels: map[string]string{}}
		for _, loc := range s.locs {
			for _, fn := range locFn[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		for _, l := range s.labels {
			ps.labels[str(l[0])] = str(l[1])
		}
		out[i] = ps
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with the field number,
// the wire type, the value (wire type 0) and the payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
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
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, payload []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
