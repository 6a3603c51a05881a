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

// A minimal reader for the gzip-compressed profile.proto runtime/pprof
// writes: just enough of the format to charge each sample's value to the
// ustore/internal module of its innermost frame.

// moduleOf names the module a call stack is charged to under the package's
// attribution rule. frames lists function names leaf first, inlined
// callees before their callers.
func moduleOf(frames []string) string {
	const prefix = "ustore/internal/"
	for _, fn := range frames {
		if !strings.HasPrefix(fn, prefix) {
			continue
		}
		mod := fn[len(prefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if reportedModules[mod] {
			return mod
		}
		return "other"
	}
	return "runtime"
}

// profileSample is one decoded sample: its stack (function names, leaf
// first) and values in sample_type order.
type profileSample struct {
	frames []string
	values []int64
}

// profileData is a decoded profile.
type profileData struct {
	types   []string // sample_type names
	samples []profileSample
}

// valueIndex returns the index of the named sample type.
func (p *profileData) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (have %v)", name, p.types)
}

// byModule sums the named sample value per module.
func (p *profileData) byModule(name string) (map[string]int64, error) {
	vi, err := p.valueIndex(name)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		out[moduleOf(s.frames)] += s.values[vi]
	}
	return out, nil
}

// sumWhere sums the named value over samples whose stack has a frame for
// which match holds.
func (p *profileData) sumWhere(name string, match func(fn string) bool) (int64, error) {
	vi, err := p.valueIndex(name)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range p.samples {
		for _, fn := range s.frames {
			if match(fn) {
				total += s.values[vi]
				break
			}
		}
	}
	return total, nil
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(raw []byte) (*profileData, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
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
	p := &profileData{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, s := range samples {
		ps := profileSample{values: s.values}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				ps.frames = append(ps.frames, str(funcNames[fid]))
			}
		}
		if len(ps.values) != len(p.types) {
			return nil, fmt.Errorf("profile sample has %d values for %d types", len(ps.values), len(p.types))
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the protobuf fields of msg. For varint fields v holds
// the value; for length-delimited fields b holds the payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either packed (wire 2)
// or unpacked (wire 0) encoding.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
