package spec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"ustore/internal/faults"
)

// decoder walks a node tree into a Spec, rejecting unknown fields and type
// mismatches with the node's position. It never panics: FuzzSpecParse
// holds it to that.
type decoder struct {
	file string
}

func (d *decoder) errf(n *Node, format string, args ...any) error {
	return d.keyErrf(n, n.Line, n.Col, format, args...)
}

// keyErrf reports an error about the entry whose key sits at line:col and
// whose value is v — naming the flag instead when a flag set v.
func (d *decoder) keyErrf(v *Node, line, col int, format string, args ...any) error {
	if v.flag != "" {
		return fmt.Errorf("flag %s: %s", v.flag, fmt.Sprintf(format, args...))
	}
	return errAt(d.file, line, col, format, args...)
}

func (d *decoder) scalar(n *Node, field string) (*Node, error) {
	if n.Kind != KindScalar {
		return nil, d.errf(n, "field %s: expected a scalar, got a %s", field, n.Kind)
	}
	return n, nil
}

func (d *decoder) str(n *Node, field string) (string, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return "", err
	}
	return sc.Val, nil
}

func (d *decoder) boolVal(n *Node, field string) (bool, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return false, err
	}
	if sc.Quoted {
		return false, d.errf(n, "field %s: expected true or false, got the string %q", field, sc.Val)
	}
	switch sc.Val {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, d.errf(n, "field %s: expected true or false, got %q", field, sc.Val)
}

func (d *decoder) intVal(n *Node, field string) (int64, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(sc.Val, 10, 64)
	if perr != nil || sc.Quoted {
		return 0, d.errf(n, "field %s: cannot parse %q as an integer", field, sc.Val)
	}
	return v, nil
}

func (d *decoder) floatVal(n *Node, field string) (float64, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseFloat(sc.Val, 64)
	if perr != nil || sc.Quoted || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, d.errf(n, "field %s: cannot parse %q as a number", field, sc.Val)
	}
	return v, nil
}

// eachField iterates a mapping's entries through fn; fn returns false for
// a key it does not know, which becomes the positional unknown-field
// error (with the section name, so typos are easy to place).
func (d *decoder) eachField(n *Node, section string, fn func(key string, v *Node) (bool, error)) error {
	for i, key := range n.Keys {
		known, err := fn(key, n.Children[i])
		if err != nil {
			return err
		}
		if !known {
			return d.keyErrf(n.Children[i], n.KeyLines[i], n.KeyCols[i], "unknown field %q in %s", key, section)
		}
	}
	return nil
}

// DecodeSpec decodes a parsed document (sans grid) into a defaulted,
// validated Spec.
func DecodeSpec(root *Node, file string) (*Spec, error) {
	d := &decoder{file: file}
	s := Default()
	err := d.decodeStruct(root, reflect.ValueOf(s).Elem(), "")
	if err != nil {
		return nil, err
	}
	if root.child("mode") == nil {
		return nil, d.errf(root, "spec is missing the required field \"mode\"")
	}
	if err := d.checkSections(root, s.Mode); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		var fe *fieldError
		if errors.As(err, &fe) {
			if n := root.lookup(fe.path); n != nil {
				return nil, d.errf(n, "%s", fe.msg)
			}
		}
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return s, nil
}

// modeSections lists the top-level keys each mode's compile path reads
// besides name, mode, seed and grid. Any other key is a positional error,
// so no scenario setting — from the file or from a flag — is silently
// ignored.
var modeSections = map[string][]string{
	"faults":     {"days", "faults", "failure", "output"},
	"traffic":    {"days", "traffic", "output"},
	"fleet":      {"fleet", "output"},
	"fidelity":   {"fidelity"},
	"durability": {"failure", "durability"},
}

// checkSections rejects the first top-level key mode does not read,
// pointing into a section at its first field (the one a flag set, when a
// flag created the section). An unknown mode is left to Validate.
func (d *decoder) checkSections(root *Node, mode string) error {
	reads, ok := modeSections[mode]
	if !ok {
		return nil
	}
	for i, key := range root.Keys {
		if key == "name" || key == "mode" || key == "seed" || key == "grid" || slices.Contains(reads, key) {
			continue
		}
		v, path, line, col := root.Children[i], key, root.KeyLines[i], root.KeyCols[i]
		if v.Kind == KindMap && len(v.Keys) > 0 {
			path += "." + v.Keys[0]
			v, line, col = v.Children[0], v.KeyLines[0], v.KeyCols[0]
		}
		return d.keyErrf(v, line, col, "%s is not read in mode %s (it reads seed, %s)", path, mode, strings.Join(reads, ", "))
	}
	return nil
}

// decodeStruct decodes mapping n into the struct v, matching each key to
// a field's json tag — the same names the canonical form (Canonical) uses,
// so the Spec struct is the one list of fields. path is the section's
// dotted name ("" at the top level, whose grid key File.decodeAxes reads).
func (d *decoder) decodeStruct(n *Node, v reflect.Value, path string) error {
	section := path
	if section == "" {
		section = "spec"
	}
	if n.Kind != KindMap {
		return d.errf(n, "section %s: expected nested keys, got a %s", section, n.Kind)
	}
	t := v.Type()
	return d.eachField(n, section, func(key string, c *Node) (bool, error) {
		if path == "" && key == "grid" {
			return true, nil
		}
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Tag.Get("json") == key {
				name := key
				if path != "" {
					name = path + "." + key
				}
				return true, d.decodeValue(c, v.Field(i), name)
			}
		}
		return false, nil
	})
}

// ureBitsNames are the named measurement points failure.ure_bits accepts
// besides a number.
var ureBitsNames = map[string]float64{
	"spec":     faults.SpecUREBits,
	"observed": faults.ObservedUREBits,
	"off":      0,
}

// decodeValue decodes n into the field v, named name in errors.
func (d *decoder) decodeValue(n *Node, v reflect.Value, name string) error {
	switch v.Kind() {
	case reflect.Struct:
		return d.decodeStruct(n, v, name)
	case reflect.Bool:
		b, err := d.boolVal(n, name)
		v.SetBool(b)
		return err
	case reflect.Int, reflect.Int64:
		i, err := d.intVal(n, name)
		v.SetInt(i)
		return err
	case reflect.Float64:
		f, err := d.floatVal(n, name)
		if err != nil && name == "failure.ure_bits" {
			named, ok := ureBitsNames[n.Val]
			if !ok || n.Kind != KindScalar {
				return d.errf(n, "field failure.ure_bits: want a number of bits-per-error, \"spec\", \"observed\", or \"off\"")
			}
			f, err = named, nil
		}
		v.SetFloat(f)
		return err
	case reflect.String:
		str, err := d.str(n, name)
		v.SetString(str)
		return err
	}
	panic("spec: field " + name + " has no decoder for kind " + v.Kind().String())
}

// Parse parses and decodes a spec document (YAML subset or JSON — sniffed
// from the first non-space byte), returning the File handle grid
// expansion and hashing hang off.
func Parse(data []byte, file string) (*File, error) {
	return ParseWith(data, file, nil)
}

// Override is one assignment to a dotted spec path from outside the
// document — a ustore-chaos scenario flag such as -units (fleet.units).
type Override struct {
	Path  string // dotted field path, e.g. "fleet.units"
	Value string // scalar text, decoded exactly like a document value
	Flag  string // the flag that set it, e.g. "-units"; errors name it
}

// ParseWith is Parse with overrides applied to the document before it is
// decoded: each replaces (or adds) the scalar at its path, so it wins over
// the file and is checked like any document value. Two overrides setting
// one path to different values are a conflict.
func ParseWith(data []byte, file string, overrides []Override) (*File, error) {
	var root *Node
	var err error
	if isJSON(data) {
		root, err = ParseJSON(data, file)
	} else {
		root, err = ParseYAML(data, file)
	}
	if err != nil {
		return nil, err
	}
	set := make(map[string]Override, len(overrides))
	for _, o := range overrides {
		if prev, ok := set[o.Path]; ok && prev.Value != o.Value {
			return nil, fmt.Errorf("flags %s and %s both set %s (%s vs %s)", prev.Flag, o.Flag, o.Path, prev.Value, o.Value)
		}
		set[o.Path] = o
		if err := applyOverride(root, o.Path, &Node{Kind: KindScalar, Val: o.Value, flag: o.Flag}, file); err != nil {
			return nil, err
		}
	}
	f := &File{Path: file, root: root}
	if f.Spec, err = DecodeSpec(root, file); err != nil {
		return nil, err
	}
	if err := f.decodeAxes(); err != nil {
		return nil, err
	}
	return f, nil
}

func isJSON(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// decodeAxes extracts the grid section (axis path -> list of scalar
// values, in document order).
func (f *File) decodeAxes() error {
	d := &decoder{file: f.Path}
	g := f.root.child("grid")
	if g == nil {
		return nil
	}
	if g.Kind != KindMap {
		return d.errf(g, "section grid: expected axis paths mapped to value lists, got a %s", g.Kind)
	}
	for i, path := range g.Keys {
		v := g.Children[i]
		if v.Kind != KindList {
			return d.errf(v, "grid axis %q: expected a list of values, got a %s", path, v.Kind)
		}
		if len(v.Children) == 0 {
			return d.errf(v, "grid axis %q: empty value list", path)
		}
		ax := Axis{Path: path, Name: path[strings.LastIndex(path, ".")+1:]}
		for _, item := range v.Children {
			if item.Kind != KindScalar {
				return d.errf(item, "grid axis %q: values must be scalars, got a %s", path, item.Kind)
			}
			ax.Values = append(ax.Values, item)
		}
		f.Axes = append(f.Axes, ax)
	}
	return nil
}
