package web

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Decoding the POST /eval/batch body. encoding/json is the reference: the
// body means whatever json.Decoder.Decode makes of it. Real clients send
// one canonical shape, though — json.Marshal output with the exact field
// names — and decoding that through reflection cost as much as the
// analytic model itself. So the body is read once and tried against a
// strict scanner that covers only that grammar:
//
//   - JSON whitespace;
//   - one object with the exact keys "backend" and "items", each at most
//     once, whose items are objects with the exact keys "chip",
//     "backend", "f", "dsp", "fpw", "words", "trials" and "serialized",
//     each at most once;
//   - ASCII strings (bytes 0x20–0x7f) with no escapes;
//   - numbers in the JSON grammar, converted with the strconv calls
//     encoding/json makes (ParseFloat for f and dsp, ParseInt for the
//     counts), so a value either decodes to the same bits or falls back;
//   - true or false for serialized.
//
// Anything else — null, escapes, non-ASCII, case-folded, unknown or
// duplicate keys, a value of the wrong type or out of range, a syntax
// error, or a read error such as the body limit — goes to json.Decoder
// over the same bytes (and the same read error after them), so accepted
// bodies, decoded values, the bytes after the object that Decode never
// reads, and every error text stay encoding/json's. FuzzBatchDecode holds
// the scanner to that: whatever it accepts, encoding/json accepts and
// decodes to a reflect.DeepEqual request.

// bodyPool holds the buffers bodies are read into. A buffer is free once
// its body is decoded: the scanner copies the names it keeps (name) and
// encoding/json copies whatever it decodes.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBatchBody reads body to its end, into a pooled buffer, and
// decodes it.
func decodeBatchBody(body io.Reader) (batchRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	_, readErr := buf.ReadFrom(body)
	if readErr == nil {
		if req, ok := scanBatchRequest(buf.Bytes()); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req batchRequest
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// putBody returns a body buffer to the pool unless it outgrew
// maxPooledResponse, as response writers do, so one large body cannot
// keep its buffer resident.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledResponse {
		bodyPool.Put(buf)
	}
}

// errReader fails every read with err: the tail that replays a body's
// read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// scanBatchRequest decodes data if it is in the canonical grammar and
// reports whether it was; bytes after the request object are ignored,
// as json.Decoder.Decode leaves them unread.
func scanBatchRequest(data []byte) (batchRequest, bool) {
	s := batchScanner{data: data}
	var req batchRequest
	var seen uint8
	s.ws()
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "backend":
			return once(&seen, 1<<0) && s.name(&req.Backend)
		case "items":
			return once(&seen, 1<<1) && s.items(&req.Items)
		}
		return false
	})
	if !ok {
		return batchRequest{}, false
	}
	return req, true
}

// batchScanner is one scan over a request body.
type batchScanner struct {
	data []byte
	pos  int
	// names interns chip and backend names: a body repeats a handful of
	// them across all its items.
	names map[string]string
	// floats and ints back the items' pointer fields, a chunk at a time,
	// instead of one allocation per field.
	floats []float64
	ints   []int
}

// valueChunk is the number of values one backing chunk holds.
const valueChunk = 64

// once sets bit in seen and reports whether it was clear: a key seen
// twice in one object is outside the grammar.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// ws skips JSON whitespace.
func (s *batchScanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips c if it is the next byte and reports whether it was.
func (s *batchScanner) consume(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object scans an object, handing each key to member with the scanner
// positioned at its value; member decodes the value or reports false.
func (s *batchScanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	s.ws()
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		s.ws()
		if !s.consume(':') {
			return false
		}
		s.ws()
		if !member(key) {
			return false
		}
		s.ws()
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
		s.ws()
	}
}

// items scans the items array. An empty array decodes to an empty,
// non-nil slice, as encoding/json leaves it.
func (s *batchScanner) items(dst *[]batchItem) bool {
	if !s.consume('[') {
		return false
	}
	// Every item opens a brace, so the count of braces ahead bounds the
	// item count; the bound caps a hostile body's preallocation.
	n := bytes.Count(s.data[s.pos:], []byte{'{'})
	items := make([]batchItem, 0, min(n, DefaultBatchLimit))
	s.ws()
	if s.consume(']') {
		*dst = items
		return true
	}
	for {
		items = append(items, batchItem{})
		if !s.item(&items[len(items)-1]) {
			return false
		}
		s.ws()
		if s.consume(']') {
			*dst = items
			return true
		}
		if !s.consume(',') {
			return false
		}
		s.ws()
	}
}

// item scans one item object into it.
func (s *batchScanner) item(it *batchItem) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "chip":
			return once(&seen, 1<<0) && s.name(&it.Chip)
		case "backend":
			return once(&seen, 1<<1) && s.name(&it.Backend)
		case "f":
			return once(&seen, 1<<2) && s.float(&it.F)
		case "dsp":
			return once(&seen, 1<<3) && s.float(&it.DSP)
		case "fpw":
			return once(&seen, 1<<4) && s.int(&it.FPW)
		case "words":
			return once(&seen, 1<<5) && s.int(&it.Words)
		case "trials":
			return once(&seen, 1<<6) && s.int(&it.Trials)
		case "serialized":
			return once(&seen, 1<<7) && s.bool(&it.Serialized)
		}
		return false
	})
}

// str scans an ASCII string without escapes or control bytes and
// returns its contents.
func (s *batchScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// name scans a string value into *dst, interned.
func (s *batchScanner) name(dst *string) bool {
	b, ok := s.str()
	if !ok {
		return false
	}
	v, ok := s.names[string(b)]
	if !ok {
		if s.names == nil {
			s.names = make(map[string]string)
		}
		v = string(b)
		s.names[v] = v
	}
	*dst = v
	return true
}

// number scans a number literal in the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *batchScanner) number() ([]byte, bool) {
	start := s.pos
	s.consume('-')
	if !s.consume('0') {
		if s.pos >= len(s.data) || s.data[s.pos] < '1' || s.data[s.pos] > '9' {
			return nil, false
		}
		s.digits()
	}
	if s.consume('.') && !s.digits() {
		return nil, false
	}
	if s.consume('e') || s.consume('E') {
		if !s.consume('+') {
			s.consume('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.data[start:s.pos], true
}

// digits skips a run of decimal digits and reports whether it was
// non-empty.
func (s *batchScanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// float scans a number into *dst as encoding/json decodes a float64.
func (s *batchScanner) float(dst **float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	if len(s.floats) == cap(s.floats) {
		s.floats = make([]float64, 0, valueChunk)
	}
	s.floats = append(s.floats, v)
	*dst = &s.floats[len(s.floats)-1]
	return true
}

// int scans a number into *dst as encoding/json decodes an int: ParseInt
// at 64 bits, then the overflow check for the platform's int.
func (s *batchScanner) int(dst **int) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return false
	}
	if len(s.ints) == cap(s.ints) {
		s.ints = make([]int, 0, valueChunk)
	}
	s.ints = append(s.ints, int(v))
	*dst = &s.ints[len(s.ints)-1]
	return true
}

// bool scans true or false into *dst.
func (s *batchScanner) bool(dst *bool) bool {
	for _, lit := range [...]string{"true", "false"} {
		if bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
			s.pos += len(lit)
			*dst = lit == "true"
			return true
		}
	}
	return false
}
