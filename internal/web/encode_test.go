package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/jsonenc"
)

// stdJSON is the reference encoding: v through a json.Encoder, indented
// with SetIndent("", "  ") or compact.
func stdJSON(t *testing.T, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendJSON(v jsonAppender, indent bool) []byte {
	var w jsonenc.Writer
	w.Reset(indent)
	v.appendJSON(&w)
	w.End()
	return w.Bytes()
}

// TestResponseEncodingCorpus encodes the envelopes around every answer the
// differential corpus gets from the surrogate (fitted answers and sim
// fallbacks) and from auto (analytic and sim answers), and requires
// encoding/json's bytes.
func TestResponseEncodingCorpus(t *testing.T) {
	ctx := context.Background()
	var items []batchItemResult
	s := newServer(Options{})
	for _, name := range []string{"surrogate", "auto"} {
		ev, err := eval.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fx := range eval.DefaultCorpus() {
			o, err := ev.Evaluate(ctx, fx.Query)
			if err != nil {
				items = append(items, batchItemResult{Chip: fx.Query.Chip.Name, Error: err.Error()})
				continue
			}
			item := s.finishItem(fx.Query, o)
			items = append(items, item)
			label := name + "/" + fx.Name
			resp := &evalResponse{Chip: item.Chip, Backend: item.Backend, Fingerprint: item.Fingerprint, Outcome: o}
			if got, want := appendJSON(resp, true), stdJSON(t, resp, true); !bytes.Equal(got, want) {
				t.Errorf("%s: /eval response\n got %s\nwant %s", label, got, want)
			}
			if got, want := appendJSON(&item, false), stdJSON(t, &item, false); !bytes.Equal(got, want) {
				t.Errorf("%s: NDJSON line\n got %s\nwant %s", label, got, want)
			}
		}
	}
	items = append(items, batchItemResult{Chip: "<chip & \u2028>", Error: "eval: \"quoted\"\n\xff"}, batchItemResult{})
	// The buffered envelope around items encoded as the workers encode
	// them, item i into writer i mod workers, one writer's items back to
	// back.
	for _, workers := range []int{1, 4} {
		for _, all := range []*batchResponse{{Items: items}, {Items: []batchItemResult{}}} {
			encs := make([]jsonenc.Writer, workers)
			for k := range encs {
				encs[k].Reset(true)
			}
			encoded := make([]encodedItem, len(all.Items))
			for i := range all.Items {
				encoded[i] = appendItem(&encs[i%workers], i, &all.Items[i], false)
			}
			rec := httptest.NewRecorder()
			writeBuffered(rec, encoded)
			if got, want := rec.Body.Bytes(), stdJSON(t, all, true); !bytes.Equal(got, want) {
				t.Errorf("%d workers, %d items: batch response differs:\n got %s\nwant %s", workers, len(all.Items), got, want)
			}
		}
	}
}

// TestResponseEncodingCanary serves the benchmark's canary questions —
// every chip preset and backend on two shapes — through /eval, buffered
// /eval/batch and NDJSON, and requires each body to be exactly what
// encoding/json writes for the values it carries.
func TestResponseEncodingCanary(t *testing.T) {
	h := Handler()
	var qs []string
	var urls []string
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, backend := range []string{"analytic", "surrogate", "auto", "sim"} {
			for _, shape := range []struct {
				f   string
				fpw int
			}{{"0.5", 32}, {"0.25", 512}} {
				qs = append(qs, fmt.Sprintf(`{"chip":%q,"backend":%q,"f":%s,"fpw":%d}`, chip, backend, shape.f, shape.fpw))
				urls = append(urls, "/eval?chip="+chip+"&f="+shape.f+"&fpw="+strconv.Itoa(shape.fpw)+"&backend="+backend)
			}
		}
	}
	for _, u := range urls {
		rec := serve(h, http.MethodGet, u, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u, rec.Code, rec.Body)
		}
		var resp evalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := stdJSON(t, &resp, true); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s:\n got %s\nwant %s", u, rec.Body.Bytes(), want)
		}
	}

	body := `{"items":[` + strings.Join(qs, ",") + `]}`
	rec := serve(h, http.MethodPost, "/eval/batch", body)
	var buffered batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &buffered); err != nil || len(buffered.Items) != len(qs) {
		t.Fatalf("buffered batch: %v, %d items: %s", err, len(buffered.Items), rec.Body)
	}
	if want := stdJSON(t, &buffered, true); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("buffered batch:\n got %s\nwant %s", rec.Body.Bytes(), want)
	}

	rec = serve(h, http.MethodPost, "/eval/batch?stream=1", body)
	var want []byte
	for i, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var item batchItemResult
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("NDJSON line %d: %v", i, err)
		}
		if !reflect.DeepEqual(item, buffered.Items[i]) {
			t.Errorf("NDJSON line %d differs from the buffered item", i)
		}
		want = append(want, stdJSON(t, &item, false)...)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("NDJSON batch:\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
}

// TestResponseShapeLock holds the appenders to the JSON tags of every type
// they encode: the keys written for a fully populated value must be the
// tagged fields in declaration order, and zeroing a field must drop its key
// exactly when the tag says omitempty. A field added to a response type
// without teaching its appender fails here.
func TestResponseShapeLock(t *testing.T) {
	for _, root := range []jsonAppender{&batchItemResult{}, &evalResponse{}} {
		rv := reflect.ValueOf(root).Elem()
		fill(rv)
		top := func() *object { return parseObject(t, appendJSON(root, false)) }
		checkShape(t, rv, top)
	}
}

// jsonField is one field as its tag declares it.
type jsonField struct {
	name      string
	omitempty bool
	index     int
}

func tagFields(typ reflect.Type) []jsonField {
	var fs []jsonField
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if !sf.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "-" && opts == "" {
			continue
		}
		if name == "" {
			name = sf.Name
		}
		fs = append(fs, jsonField{name, strings.Contains(","+opts+",", ",omitempty,"), i})
	}
	return fs
}

// checkShape compares the struct v with the object locate finds in the
// root's encoding, then recurses into nested response types.
func checkShape(t *testing.T, v reflect.Value, locate func() *object) {
	typ := v.Type()
	fields := tagFields(typ)
	var want []string
	for _, f := range fields {
		want = append(want, f.name)
	}
	if got := locate().keys; !reflect.DeepEqual(got, want) {
		t.Errorf("%s: appender writes keys %v, tags declare %v", typ, got, want)
		return
	}
	for _, f := range fields {
		fv := v.Field(f.index)
		saved := reflect.New(fv.Type()).Elem()
		saved.Set(fv)
		fv.Set(reflect.Zero(fv.Type()))
		_, present := locate().vals[f.name]
		fv.Set(saved)
		if present == f.omitempty {
			t.Errorf("%s.%s: zero value written=%v, but omitempty=%v", typ, typ.Field(f.index).Name, present, f.omitempty)
		}

		name := f.name
		child := func() *object {
			switch c := locate().vals[name].(type) {
			case *object:
				return c
			case []any:
				if o, ok := c[0].(*object); ok {
					return o
				}
			}
			t.Fatalf("%s.%s: no nested object in the encoding", typ, name)
			return nil
		}
		switch fv.Kind() {
		case reflect.Struct:
			checkShape(t, fv, child)
		case reflect.Pointer:
			if fv.Elem().Kind() == reflect.Struct {
				checkShape(t, fv.Elem(), child)
			}
		case reflect.Slice:
			if fv.Index(0).Kind() == reflect.Struct {
				checkShape(t, fv.Index(0), child)
			}
		}
	}
}

// fill sets every exported field reachable from v to a non-zero value,
// allocating pointers and one-element slices.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Float64, reflect.Float32:
		v.SetFloat(1.5)
	case reflect.Int, reflect.Int64, reflect.Int32:
		v.SetInt(1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem())
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(s.Index(0))
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	}
}

// object is a decoded JSON object that remembers its key order.
type object struct {
	keys []string
	vals map[string]any // *object, []any or a scalar token
}

func parseObject(t *testing.T, data []byte) *object {
	t.Helper()
	v, err := parseValue(json.NewDecoder(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("parse %s: %v", data, err)
	}
	o, ok := v.(*object)
	if !ok {
		t.Fatalf("encoding %s is not an object", data)
	}
	return o
}

func parseValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		o := &object{vals: map[string]any{}}
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := parseValue(dec)
			if err != nil {
				return nil, err
			}
			o.keys = append(o.keys, k.(string))
			o.vals[k.(string)] = v
		}
		_, err := dec.Token()
		return o, err
	case json.Delim('['):
		var arr []any
		for dec.More() {
			v, err := parseValue(dec)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		_, err := dec.Token()
		return arr, err
	}
	return tok, nil
}
