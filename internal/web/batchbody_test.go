package web

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzBatchDecode holds the batch body scanner to encoding/json: whatever
// the scanner accepts, json.Decoder accepts and decodes to a
// reflect.DeepEqual request, and decodeBatchBody (scanner or fallback)
// always returns what json.Decoder returns, error text included.
func FuzzBatchDecode(f *testing.F) {
	for _, body := range batchBenchBodies(f, 2, 8, 3) {
		f.Add(body)
	}
	for _, body := range []string{
		`{"items":[{"chip":"snapdragon821","backend":"surrogate","f":0.25,"fpw":512}]}`,
		" \t\r\n{ \"backend\" : \"analytic\" , \"items\" : [ { \"f\" : 0.375 , \"dsp\" : 0.125 , \"fpw\" : 8 , \"words\" : 16777216 , \"trials\" : 3 , \"serialized\" : true } , { } ] } \n",
		`{"items":[{"serialized":false,"chip":"snapdragon835x"}],"backend":"sim"}`,
		// Case-folded keys, which encoding/json matches to the fields.
		`{"items":[{"FPW":32}]}`,
		`{"ITEMS":[{"f":0.5}]}`,
		"{\"items\":[{\"ſerialized\":true}]}",
		"{\"items\":[{\"bacKend\":\"analytic\"}]}",
		// Duplicate keys: encoding/json overwrites scalars and decodes a
		// second items array into the first one's elements.
		`{"items":[{"f":0.1,"fpw":8}],"items":[{"f":0.2}]}`,
		`{"items":[{},{}],"items":[{"f":0.2}]}`,
		`{"items":[{"f":0.1,"f":0.2}]}`,
		`{"backend":"sim","backend":"analytic","items":[{}]}`,
		// null anywhere.
		`null`,
		`{"items":null}`,
		`{"items":[null]}`,
		`{"items":[{"f":null,"chip":null}]}`,
		`{"backend":null,"items":[{}]}`,
		// Escapes, non-ASCII and invalid UTF-8.
		`{"items":[{"chip":"snap\u0064ragon835"}]}`,
		`{"b\u0061ckend":"analytic","items":[{}]}`,
		`{"items":[{"chip":"snap\/dragon"}]}`,
		"{\"items\":[{\"chip\":\"\xff\"}]}",
		"{\"items\":[{\"chip\":\"café\"}]}",
		"{\"items\":[{\"chip\":\"a\x01b\"}]}",
		"{\"items\":[{\"chip\":\"a\x7fb\"}]}",
		// Numbers: floats for int fields, out of range, signs, grammar.
		`{"items":[{"fpw":1e3}]}`,
		`{"items":[{"fpw":1.0}]}`,
		`{"items":[{"fpw":9223372036854775807}]}`,
		`{"items":[{"fpw":9223372036854775808}]}`,
		`{"items":[{"fpw":-9223372036854775809}]}`,
		`{"items":[{"f":1e400}]}`,
		`{"items":[{"f":-1e400}]}`,
		`{"items":[{"f":1e-400}]}`,
		`{"items":[{"f":-0,"fpw":-0,"dsp":0e0}]}`,
		`{"items":[{"f":01}]}`,
		`{"items":[{"f":1.}]}`,
		`{"items":[{"f":.5}]}`,
		`{"items":[{"f":+1}]}`,
		`{"items":[{"f":-}]}`,
		`{"items":[{"f":1E+2,"dsp":2e-1}]}`,
		`{"items":[{"f":"0.5"}]}`,
		`{"items":[{"chip":5}]}`,
		`{"items":[{"serialized":1}]}`,
		`{"items":[{"serialized":truex}]}`,
		// Unknown keys, wrong shapes, empty and unfinished bodies.
		`{"items":[{"bogus":1}]}`,
		`{"extra":{},"items":[{}]}`,
		`{"items":{}}`,
		`{"items":[[]]}`,
		`[]`,
		`{"items":[]}`,
		`{}`,
		``,
		`{`,
		`{"items":[`,
		`{"items":[{}],}`,
		`{"items":[{},]}`,
		// Trailing bytes after the object, which Decode never reads.
		`{"items":[{"f":0.5}]} trailing garbage`,
		`{"items":[{}]}{"items":[]}`,
		"{\"items\":[{}]}\xff",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want batchRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if got, ok := scanBatchRequest(data); ok {
			if wantErr != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", data, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanner decoded %q as %+v, encoding/json as %+v", data, got, want)
			}
		}
		got, err := decodeBatchBody(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decodeBatchBody(%q) error = %v, encoding/json's = %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeBatchBody(%q) = %+v, encoding/json's = %+v", data, got, want)
		}
	})
}

// postBatchInProcess answers one /eval/batch POST through the handler.
func postBatchInProcess(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval/batch", bytes.NewReader(body)))
	return rec
}

// TestBatchBodyTooLarge pins the answer to a body past maxBatchBody that
// is still an unfinished request when the limit cuts it: a 400 carrying
// the body limit's error.
func TestBatchBodyTooLarge(t *testing.T) {
	item := `{"f":0.5,"fpw":32},`
	body := []byte(`{"items":[` + strings.Repeat(item, maxBatchBody/len(item)+1))
	rec := postBatchInProcess(t, NewHandler(Options{}), body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if got, want := rec.Body.String(), `{"error":"undecodable batch body: http: request body too large"}`+"\n"; got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
}

// TestBatchTrailingBytes pins that bytes after the request object are
// ignored, as json.Decoder.Decode leaves them unread, on the canonical
// grammar and on a body that needs encoding/json (a case-folded key).
func TestBatchTrailingBytes(t *testing.T) {
	h := NewHandler(Options{})
	for _, body := range []string{
		`{"items":[{"f":0.5,"fpw":32}]} trailing garbage {`,
		`{"items":[{"F":0.5,"fpw":32}]}]]]`,
	} {
		rec := postBatchInProcess(t, h, []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200: %s", body, rec.Code, rec.Body.Bytes())
		}
		var resp struct {
			Items []batchItemResult `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Items) != 1 || resp.Items[0].Outcome == nil || resp.Items[0].Fingerprint == "" {
			t.Errorf("%s: response %s, want one answered item", body, rec.Body.Bytes())
		}
	}
}
