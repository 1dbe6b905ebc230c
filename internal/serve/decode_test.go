package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// oversizePad is whitespace that takes any body past maxRequestBytes.
var oversizePad = bytes.Repeat([]byte{' '}, maxRequestBytes+1)

// FuzzDecodeRequest fuzzes the request decoder behind both endpoints
// against a model built from encoding/json's lenient parts: a body of
// at most maxRequestBytes is accepted exactly when it is one JSON
// object (json.Valid, first byte '{'), every key names a field of the
// request type (matched case-insensitively, as encoding/json does), and
// json.Unmarshal accepts it — and then decodes to what Unmarshal gives.
// The same body padded past the cap is answered 413.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxRequestBytes {
			t.Skip("oversized input")
		}
		checkDecode[DiagnoseRequest](t, body)
		checkDecode[CampaignRequest](t, body)

		rec := httptest.NewRecorder()
		padded := io.MultiReader(bytes.NewReader(body), bytes.NewReader(oversizePad))
		if decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/", padded), new(DiagnoseRequest)) || rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%q padded past %d bytes: status %d, want 413", body, maxRequestBytes, rec.Code)
		}
	})
}

// checkDecode runs decodeRequest into a T on body and checks its answer
// against the model.
func checkDecode[T any](t *testing.T, body []byte) {
	t.Helper()
	var got T
	rec := httptest.NewRecorder()
	ok := decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &got)
	want, valid := modelDecode[T](body)
	switch {
	case ok != valid:
		t.Fatalf("%T %q: decodeRequest accepted = %v (status %d), model %v", got, body, ok, rec.Code, valid)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("%T %q: decoded %+v, json.Unmarshal gives %+v", got, body, got, want)
	case !ok && rec.Code != http.StatusBadRequest:
		t.Fatalf("%T %q: refused with status %d, want 400", got, body, rec.Code)
	}
}

// modelDecode is the acceptance model: the value json.Unmarshal decodes
// from body, and whether decodeRequest must accept it.
func modelDecode[T any](body []byte) (T, bool) {
	var v T
	if !json.Valid(body) || !bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte("{")) {
		return v, false
	}
	var fields map[string]json.RawMessage
	if json.Unmarshal(body, &fields) != nil {
		return v, false
	}
	rt := reflect.TypeFor[T]()
	for key := range fields {
		known := false
		for i := 0; i < rt.NumField(); i++ {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			known = known || strings.EqualFold(key, name)
		}
		if !known {
			return v, false
		}
	}
	return v, json.Unmarshal(body, &v) == nil
}
