package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRoutingTable pins what Server.ServeHTTP answers for each path
// shape, driven in process so net/http's server-level handling (such
// as its own answer to OPTIONS *) does not stand in front of it: the
// four routes reach their handlers, an unknown path is 404, a
// non-canonical path is ServeMux's 301 to the cleaned one, a wrong
// method on /v1/diagnose is 405, and OPTIONS * is 400.
func TestRoutingTable(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	cases := []struct {
		method, target, body string
		code                 int
		contentType          string // prefix the reply's Content-Type must carry
		location             string // the Location of a redirect
		bodyHas              string
	}{
		{method: "POST", target: "/v1/diagnose", body: `{"topology":"q:6","faults":[1]}`,
			code: http.StatusOK, contentType: "application/json", bodyHas: `"faults":[1]`},
		{method: "POST", target: "/v1/campaign", body: `{"topology":"q:6","min_faults":1,"max_faults":1,"trials":2}`,
			code: http.StatusOK, contentType: "application/x-ndjson", bodyHas: `"faults":1`},
		{method: "GET", target: "/metrics", code: http.StatusOK, contentType: "text/plain; version=0.0.4", bodyHas: "diagnosed_"},
		{method: "GET", target: "/healthz", code: http.StatusOK, contentType: "text/plain", bodyHas: "ok"},
		{method: "GET", target: "/v1/unknown", code: http.StatusNotFound, bodyHas: "404 page not found"},
		{method: "GET", target: "/", code: http.StatusNotFound},
		{method: "GET", target: "/healthz/", code: http.StatusNotFound},
		{method: "POST", target: "/v1//diagnose", code: http.StatusMovedPermanently, location: "/v1/diagnose"},
		{method: "POST", target: "/v1/./diagnose", code: http.StatusMovedPermanently, location: "/v1/diagnose"},
		{method: "GET", target: "/v1/diagnose", code: http.StatusMethodNotAllowed, contentType: "application/json", bodyHas: "POST only"},
		{method: "OPTIONS", target: "*", code: http.StatusBadRequest},
	}
	for _, tc := range cases {
		label := tc.method + " " + tc.target
		r := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (body %q)", label, w.Code, tc.code, w.Body.String())
			continue
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, tc.contentType) {
			t.Errorf("%s: Content-Type %q, want %q", label, ct, tc.contentType)
		}
		if loc := w.Header().Get("Location"); loc != tc.location {
			t.Errorf("%s: Location %q, want %q", label, loc, tc.location)
		}
		if !strings.Contains(w.Body.String(), tc.bodyHas) {
			t.Errorf("%s: body %q lacks %q", label, w.Body.String(), tc.bodyHas)
		}
	}
	// Only the wrong-method /v1/diagnose reached the diagnose handler
	// as an error; routing failures are not service errors.
	if snap := srv.Snapshot(); snap.Errors != 1 || snap.Requests != 2 || snap.Campaigns != 1 {
		t.Errorf("counters after routing: errors %d, requests %d, campaigns %d; want 1, 2, 1",
			snap.Errors, snap.Requests, snap.Campaigns)
	}
}
