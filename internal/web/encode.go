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

// maxPooledResponse caps the buffer a buffered response returns to the
// pool, so one large batch cannot keep its buffer resident.
const maxPooledResponse = 1 << 20

var responsePool = sync.Pool{New: func() any { return new(jsonenc.Writer) }}

// jsonAppender is a response envelope that writes itself.
type jsonAppender interface {
	appendJSON(w *jsonenc.Writer)
}

// writeJSON encodes one buffered response with a pooled writer and sends
// it. An unsupported value fails the whole response with a 500, before
// any byte of it is committed.
func writeJSON(w http.ResponseWriter, v jsonAppender) {
	enc := responsePool.Get().(*jsonenc.Writer)
	enc.Reset(true)
	v.appendJSON(enc)
	enc.End()
	if err := enc.Err(); err != nil {
		evalError(w, http.StatusInternalServerError, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Write(enc.Bytes())
	}
	if cap(enc.Bytes()) <= maxPooledResponse {
		responsePool.Put(enc)
	}
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

func (r *batchResponse) appendJSON(w *jsonenc.Writer) {
	w.BeginObject()
	w.Key("items")
	if r.Items == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range r.Items {
			w.Element()
			r.Items[i].appendJSON(w)
		}
		w.EndArray()
	}
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
