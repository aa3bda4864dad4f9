// Package jsonenc appends JSON documents to a reusable byte slice, byte for
// byte as encoding/json's Encoder writes them: compact, or indented the way
// SetIndent("", "  ") indents, each document ending in a newline. It has no
// reflection: a type spells out its own fields in order (see
// eval.Outcome.AppendJSON), so encoding a response is one pass with no
// intermediate compact form to re-indent.
//
// Floats and strings follow encoding/json exactly: floats in the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 with a negative exponent's
// leading zero dropped (e-07 → e-7); strings HTML-safe (<, > and &
// escaped), with control characters, U+2028 and U+2029 escaped and
// invalid UTF-8 replaced by U+FFFD. NaN and ±Inf are unsupported values,
// reported with the error encoding/json reports.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Writer appends one JSON document at a time to its buffer. The zero value
// writes compact JSON into a nil buffer; Reset starts the next document.
// A float JSON cannot carry makes the document fail: Err reports it, and
// the buffer's content is then not valid JSON.
type Writer struct {
	buf    []byte
	indent bool
	depth  int
	// filled has bit d set once the container open at depth d has a
	// member, so the next one is preceded by a comma (depth ≤ 63).
	filled uint64
	err    error
}

// Reset empties the writer for a new document, keeping the buffer's
// capacity; indent selects the SetIndent("", "  ") layout.
func (w *Writer) Reset(indent bool) {
	*w = Writer{buf: w.buf[:0], indent: indent}
}

// ResetFragment empties the writer for a fragment of a document that
// starts inside depth open containers (1 ≤ depth ≤ 63), so the parts of
// one document can be encoded apart — concurrently — and sent in order.
// filled says whether the innermost container already holds a member
// written before the fragment, so the fragment's first Element or Key is
// preceded by a comma; each enclosing container holds the next one.
func (w *Writer) ResetFragment(indent bool, depth int, filled bool) {
	w.Reset(indent)
	w.depth = depth
	w.filled = uint64(1)<<depth - 2 // bits 1 … depth-1: each encloses the next
	if filled {
		w.MarkFilled()
	}
}

// MarkFilled records that the innermost open container holds a member
// written elsewhere — by fragments sent between this writer's bytes — so
// it closes on its own line and a later member is preceded by a comma.
func (w *Writer) MarkFilled() { w.filled |= 1 << w.depth }

// Bytes returns the encoded bytes, valid until the next Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first unsupported value met, as encoding/json reports it.
func (w *Writer) Err() error { return w.err }

// End finishes the document with the newline Encoder.Encode writes.
func (w *Writer) End() { w.buf = append(w.buf, '\n') }

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key starts an object member. name is written verbatim, so it must need
// no escaping — struct tag names do not.
func (w *Writer) Key(name string) {
	w.member()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
}

// Element starts an array element.
func (w *Writer) Element() { w.member() }

// Null writes null.
func (w *Writer) Null() { w.buf = append(w.buf, "null"...) }

// Float writes f as encoding/json writes a float64.
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	// An integer below 2^53 in magnitude prints its exact digits in the
	// shortest 'f' form, which AppendInt writes without the shortest-digit
	// search. The bit comparison also sends −0, whose bits differ from
	// 0's, on to AppendFloat's "-0".
	if i := int64(f); math.Float64bits(float64(i)) == math.Float64bits(f) && i > -1<<53 && i < 1<<53 {
		w.buf = strconv.AppendInt(w.buf, i, 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json shortens it.
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

const hex = "0123456789abcdef"

// String writes s as a quoted JSON string, escaped as encoding/json
// escapes it with HTML escaping on (the Encoder default).
func (w *Writer) String(s string) {
	dst := append(w.buf, '"')
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
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
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	w.buf = append(dst, '"')
}

func (w *Writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.filled &^= 1 << w.depth
}

func (w *Writer) close(c byte) {
	if w.filled&(1<<w.depth) != 0 {
		w.newline(w.depth - 1)
	}
	w.depth--
	w.buf = append(w.buf, c)
}

// member separates a new member from the previous one and, indented,
// puts it on its own line.
func (w *Writer) member() {
	bit := uint64(1) << w.depth
	if w.filled&bit != 0 {
		w.buf = append(w.buf, ',')
	}
	w.filled |= bit
	w.newline(w.depth)
}

// indentation is the deepest line's indent: two spaces per level at the
// depth cap of 63.
const indentation = "                                                                                                                              "

func (w *Writer) newline(depth int) {
	if !w.indent {
		return
	}
	w.buf = append(w.buf, '\n')
	w.buf = append(w.buf, indentation[:2*depth]...)
}
