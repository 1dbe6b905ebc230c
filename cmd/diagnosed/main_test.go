package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"comparisondiag/internal/serve"
)

// TestNewHTTPServerTimeouts pins the listener's timeouts: header, body
// and idle reads are bounded, and writes are not, so a long
// /v1/campaign stream is never cut off.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	hs := newHTTPServer(srv)
	if hs.Handler != srv {
		t.Fatal("handler not installed")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header %v, read %v, idle %v; want %v, %v, %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	for name, d := range map[string]time.Duration{"header": readHeaderTimeout, "read": readTimeout, "idle": idleTimeout} {
		if d <= 0 {
			t.Errorf("%s timeout %v is not positive", name, d)
		}
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut campaign streams short", hs.WriteTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}
