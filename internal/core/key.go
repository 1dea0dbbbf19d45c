package core

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// CellKey computes the stable content hash that identifies a simulation
// cell: one (application, model, machine config, workload, processor count,
// knobs) point of the evaluation matrix. The components are written in
// order, each as the JSON text a json.Encoder would write for it (newline
// included), and the whole is digested, so the key depends only on the
// *values* of the configuration — two experiments that ask for the same
// cell, however they construct it, get the same key and therefore share one
// simulation (the virtual-time engine is deterministic, see DESIGN.md §4, so
// the sharing is semantically invisible).
//
// The text comes from a reflection walk of the value, not from
// encoding/json, which is several times slower: a warm run computes a key
// for every cell it serves. The walk covers the shapes key components have —
// booleans, numbers, strings, slices, arrays, maps with string or integer
// keys, pointers, interfaces, and structs whose fields are plain or tagged
// `json:"-"` — and writes for them exactly what encoding/json writes, so
// keys, which the run report and GET /v1/cells publish, stay what they were.
// Anything else panics: a value encoding/json cannot encode (a func, a
// channel, a complex number, a non-finite float), since silently dropping it
// would corrupt the cache, and a shape the walk does not follow (a custom
// marshaler, an embedded struct, a tag that renames a field), since the key
// would no longer be the JSON text.
func CellKey(parts ...any) string {
	w := keyWalk{buf: make([]byte, 0, 1024)}
	for _, p := range parts {
		v := reflect.ValueOf(p)
		if v.IsValid() {
			checkKeyType(v.Type())
		}
		w.value(v)
		w.buf = append(w.buf, '\n')
	}
	sum := sha256.Sum256(w.buf)
	return hex.EncodeToString(sum[:16])
}

type keyWalk struct{ buf []byte }

// value appends v's JSON text. checkKeyType has vetted v's type.
func (w *keyWalk) value(v reflect.Value) {
	if !v.IsValid() {
		w.buf = append(w.buf, "null"...)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		w.buf = strconv.AppendBool(w.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.buf = strconv.AppendInt(w.buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.buf = strconv.AppendUint(w.buf, v.Uint(), 10)
	case reflect.Float32:
		w.float(v.Float(), 32)
	case reflect.Float64:
		w.float(v.Float(), 64)
	case reflect.String:
		w.buf = appendJSONString(w.buf, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			w.buf = append(w.buf, "null"...)
			return
		}
		e := v.Elem()
		checkKeyType(e.Type())
		w.value(e)
	case reflect.Slice:
		if v.IsNil() {
			w.buf = append(w.buf, "null"...)
			return
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			w.buf = append(w.buf, '"')
			w.buf = base64.StdEncoding.AppendEncode(w.buf, v.Bytes())
			w.buf = append(w.buf, '"')
			return
		}
		w.list(v)
	case reflect.Array:
		w.list(v)
	case reflect.Map:
		if v.IsNil() {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.object(v)
	case reflect.Struct:
		w.buf = append(w.buf, '{')
		for i, f := range keyFields(v.Type()) {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = append(w.buf, f.name...)
			w.value(v.Field(f.index))
		}
		w.buf = append(w.buf, '}')
	default: // a complex number: the only kind checkKeyType lets through unvetted
		panic(fmt.Sprintf("core: cell key component holds a %v, which encoding/json cannot encode", v.Type()))
	}
}

// float writes f as encoding/json does: like %g, but with ES6's exponent
// cutoffs and no zero padding in the exponent.
func (w *keyWalk) float(f float64, bits int) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("core: cell key component holds the non-finite float %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, bits)
	if b := w.buf; format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			w.buf = b[:n-1]
		}
	}
}

func (w *keyWalk) list(v reflect.Value) {
	w.buf = append(w.buf, '[')
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.value(v.Index(i))
	}
	w.buf = append(w.buf, ']')
}

// object writes a map as a JSON object, its entries in the order of their
// keys' string forms (integer keys are quoted decimals, as in encoding/json).
func (w *keyWalk) object(v reflect.Value) {
	type entry struct {
		key string
		val reflect.Value
	}
	entries := make([]entry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		k := it.Key()
		var ks string
		switch k.Kind() {
		case reflect.String:
			ks = k.String()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			ks = strconv.FormatInt(k.Int(), 10)
		default: // an unsigned integer: checkKeyType admits no other key kind
			ks = strconv.FormatUint(k.Uint(), 10)
		}
		entries = append(entries, entry{ks, it.Value()})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	w.buf = append(w.buf, '{')
	for i, e := range entries {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = appendJSONString(w.buf, e.key)
		w.buf = append(w.buf, ':')
		w.value(e.val)
	}
	w.buf = append(w.buf, '}')
}

// appendJSONString appends s as a JSON string the way json.Encoder does with
// its default HTML escaping: quote, backslash and control bytes escaped, <,
// > and & as \u escapes, invalid UTF-8 as \ufffd, and U+2028 and U+2029
// escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// keyField is one struct field the walk writes: its index and its
// pre-encoded `"Name":` prefix.
type keyField struct {
	index int
	name  []byte
}

// keyFieldCache maps a struct type to its []keyField.
var keyFieldCache sync.Map

// keyFields returns the fields of struct type t that encoding/json writes,
// in declaration order: the exported ones not tagged `json:"-"`.
// checkKeyType has rejected every embedded field encoding/json would
// follow, and every other tag.
func keyFields(t reflect.Type) []keyField {
	if f, ok := keyFieldCache.Load(t); ok {
		return f.([]keyField)
	}
	var out []keyField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() || sf.Tag.Get("json") == "-" {
			continue
		}
		out = append(out, keyField{i, append(appendJSONString(nil, sf.Name), ':')})
	}
	keyFieldCache.Store(t, out)
	return out
}

// Types with a method encoding/json would call instead of walking the value.
var (
	jsonMarshalerType = reflect.TypeFor[interface{ MarshalJSON() ([]byte, error) }]()
	textMarshalerType = reflect.TypeFor[interface{ MarshalText() ([]byte, error) }]()
)

// checkedKeyTypes records the types checkKeyType has accepted.
var checkedKeyTypes sync.Map

// checkKeyType panics unless the walk writes encoding/json's text for every
// value of type t (see CellKey). The walk checks an interface's dynamic type
// when it reaches one.
func checkKeyType(t reflect.Type) {
	if t.Name() != "" && t.PkgPath() == "" {
		return // predeclared: no methods, no fields; value rejects complex numbers
	}
	if _, ok := checkedKeyTypes.Load(t); ok {
		return
	}
	if why := keyTypeError(t, map[reflect.Type]bool{}); why != "" {
		panic(fmt.Sprintf("core: cell key component of type %v is not hashable: %s", t, why))
	}
	checkedKeyTypes.Store(t, true)
}

// keyTypeError says why the walk cannot write t, or returns "".
func keyTypeError(t reflect.Type, seen map[reflect.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if t == reflect.TypeFor[json.Number]() {
		return "encoding/json writes a json.Number as a number literal"
	}
	pt := reflect.PointerTo(t)
	if t.Implements(jsonMarshalerType) || t.Implements(textMarshalerType) ||
		pt.Implements(jsonMarshalerType) || pt.Implements(textMarshalerType) {
		return fmt.Sprintf("%v has a custom marshaler", t)
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Interface,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return ""
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return keyTypeError(t.Elem(), seen)
	case reflect.Map:
		switch t.Key().Kind() {
		case reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		default:
			return fmt.Sprintf("map key type %v", t.Key())
		}
		if why := keyTypeError(t.Key(), seen); why != "" {
			return why
		}
		return keyTypeError(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			ft := sf.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			tag := sf.Tag.Get("json")
			switch {
			case sf.Anonymous && !sf.IsExported() && ft.Kind() != reflect.Struct:
				continue // encoding/json ignores it too
			case sf.Anonymous:
				return fmt.Sprintf("embedded field %s", sf.Name)
			case !sf.IsExported() || tag == "-":
				continue
			case tag != "":
				return fmt.Sprintf("field %s has the json tag %q", sf.Name, tag)
			}
			if why := keyTypeError(sf.Type, seen); why != "" {
				return why
			}
		}
		return ""
	}
	return fmt.Sprintf("encoding/json cannot encode a %v", t)
}
