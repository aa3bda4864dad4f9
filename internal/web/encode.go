package web

import (
	"net/http"
	"sync"

	"github.com/gables-model/gables/internal/jsonenc"
)

// Response encoding for /eval and /eval/batch: the envelopes spell out
// their fields through jsonenc, byte for byte what encoding/json's Encoder
// writes for them (indented for the buffered responses, compact for each
// NDJSON line), without its reflection or SetIndent's second pass. The
// shape-lock test holds these appenders to the struct tags.

// maxPooledResponse caps the buffer a response writer returns to the
// pool, so one large batch cannot keep its buffer resident.
const maxPooledResponse = 1 << 20

var responsePool = sync.Pool{New: func() any { return new(jsonenc.Writer) }}

// jsonAppender is a response envelope that writes itself.
type jsonAppender interface {
	appendJSON(w *jsonenc.Writer)
}

// encodeResponse encodes one buffered response into a pooled writer,
// which the caller sends and returns with putResponse. An unsupported
// value is an error, so the caller can fail the whole response with a 500
// before any byte of it is committed.
func encodeResponse(v jsonAppender) (*jsonenc.Writer, error) {
	enc := responsePool.Get().(*jsonenc.Writer)
	enc.Reset(true)
	v.appendJSON(enc)
	enc.End()
	if err := enc.Err(); err != nil {
		putResponse(enc)
		return nil, err
	}
	return enc, nil
}

// The Content-Type values of the JSON and NDJSON responses. setContentType
// assigns one as the header's whole value slice, so every response shares
// it and setting it allocates nothing. That is safe while no response
// writes a header value in place: each slice has cap 1, so an Add, which
// appends, moves the header's values to a new array, and Set and Del
// replace or drop the slice. Nothing in the tree or in net/http writes a
// header value in place; keep it so.
var (
	jsonTypeHeader   = []string{"application/json"}
	ndjsonTypeHeader = []string{ndjsonContentType}
)

// setContentType sets w's Content-Type to v, one of the shared values
// above, without CanonicalMIMEHeaderKey or a new value slice.
func setContentType(w http.ResponseWriter, v []string) {
	w.Header()["Content-Type"] = v
}

// writeBody sends one encoded JSON response.
func writeBody(w http.ResponseWriter, body []byte) {
	setContentType(w, jsonTypeHeader)
	w.Write(body)
}

// putResponses returns a request's writers to the pool (putResponse).
func putResponses(encs []*jsonenc.Writer) {
	for _, enc := range encs {
		putResponse(enc)
	}
}

// putResponse returns a writer to the pool unless its buffer outgrew
// maxPooledResponse.
func putResponse(enc *jsonenc.Writer) {
	if cap(enc.Bytes()) <= maxPooledResponse {
		responsePool.Put(enc)
	}
}

// itemsDepth is the depth of the buffered batch envelope's items array:
// inside the envelope object, inside the array.
const itemsDepth = 2

// writeBuffered sends a buffered /eval/batch response, byte for byte what
// one writer encoding batchResponse writes, from items encoded apart:
// each a fragment of the envelope's items array, led by its separator
// (answerBatch). An unencodable item fails the whole response with a 500
// naming the first one in item order, before any byte is committed.
// Otherwise the envelope's head, the items in order and its tail go
// straight to w, with no buffer gathering them.
func writeBuffered(w http.ResponseWriter, items []encodedItem) {
	for _, it := range items {
		if it.err != nil {
			evalError(w, http.StatusInternalServerError, it.err)
			return
		}
	}

	env := responsePool.Get().(*jsonenc.Writer)
	defer putResponse(env)
	env.Reset(true)
	env.BeginObject()
	env.Key("items")
	env.BeginArray()
	head := len(env.Bytes())
	if len(items) > 0 {
		env.MarkFilled() // the items' fragments
	}
	env.EndArray()
	env.EndObject()
	env.End()

	setContentType(w, jsonTypeHeader)
	if _, err := w.Write(env.Bytes()[:head]); err != nil {
		return // client gone
	}
	for _, it := range items {
		if _, err := w.Write(it.bytes()); err != nil {
			return
		}
	}
	w.Write(env.Bytes()[head:])
}

func (r *evalResponse) appendJSON(w *jsonenc.Writer) {
	w.BeginObject()
	w.Key("chip")
	w.String(r.Chip)
	w.Key("backend")
	w.String(r.Backend)
	w.Key("fingerprint")
	w.String(r.Fingerprint)
	w.Key("outcome")
	r.Outcome.AppendJSON(w)
	w.EndObject()
}

func (r *batchItemResult) appendJSON(w *jsonenc.Writer) {
	w.BeginObject()
	if r.Chip != "" {
		w.Key("chip")
		w.String(r.Chip)
	}
	if r.Backend != "" {
		w.Key("backend")
		w.String(r.Backend)
	}
	if r.Fingerprint != "" {
		w.Key("fingerprint")
		w.String(r.Fingerprint)
	}
	if r.Outcome != nil {
		w.Key("outcome")
		r.Outcome.AppendJSON(w)
	}
	if r.Error != "" {
		w.Key("error")
		w.String(r.Error)
	}
	w.EndObject()
}
